// serve: the decision daemon at the paper's 2x256 net, serving the fixed
// policy with the default ServerConfig, in two parts.
//
// Capacity (the gated rate): the request-to-reply path of a UdpServer
// worker without its socket — wire decode, DecisionEngine bind, decide on a
// snapshot pinned from the PolicyStore, reply encode, AdaptiveBatcher
// update — driven in-process at overload (every batch full), with the
// policy republished every few batches. Every action is checked against
// the batch-1 reference decision. A run repeats identical work and reports
// its best repetition, like train, eval and sim.
//
// Socket (checked; latency reported, not gated): an in-process UdpServer
// driven on loopback by the benchmark's own open-loop Poisson client at a
// reference rate, while a publisher thread hot-swaps the policy every 5 ms
// (writes beside reads in the epoch-published store). Every reply must carry
// the reference action, at most 0.1% may be lost, and a published version
// must be served. A traced run adds an overload phase whose served rate is
// the socket loop's capacity (serve.socket_rate_per_s).
//
// Why the split: on a 4-vCPU virtual machine the socket path's capacity
// spread by 12-30% between runs of identical code (three client and server
// threads plus the GEMM pool wake idle vCPUs at every step), and a sleeping
// thread's wake-up alone has a p99 of ~0.5 ms, so socket figures measure
// the host as much as the server.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "nn/gemm.hpp"
#include "nn/gemv.hpp"
#include "serve/engine.hpp"
#include "serve/loadgen.hpp"
#include "serve/policy_store.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"
#include "telemetry/histogram.hpp"
#include "telemetry/trace.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using dosc::serve::wire::Request;
using dosc::serve::wire::Response;

/// Offered load of the socket overload phase: well above what one worker
/// serves, so the worker always finds a full batch and the kernel sheds
/// the rest.
constexpr double kOverloadRate = 160000.0;
constexpr double kReferenceRate = 4000.0;
constexpr double kWarmupRate = 4000.0;
constexpr double kWarmupS = 0.1;
constexpr double kPublishPeriodS = 0.005;
/// Share of the measured seconds spent in the in-process pipeline; the
/// rest goes to the socket phase.
constexpr double kPipelineShare = 0.75;
/// Pipeline batches per timed repetition, and between two publishes. A
/// publish (snapshot build + PolicyStore::publish) costs about as much as
/// 30 full batches at 2x256, so it is a visible share of the pipeline
/// without swamping the decisions.
constexpr std::size_t kBatchesPerRep = 1024;
constexpr std::size_t kPublishEveryBatches = 128;
/// The reference phase may lose at most this share of its requests.
constexpr double kMaxFailedShare = 0.001;

/// What the client saw in one phase.
struct PhaseReport {
  double rate = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;       ///< reply with the reference action
  std::uint64_t wrong = 0;    ///< reply with another action or status
  std::uint64_t missing = 0;  ///< no reply before the drain timeout
  std::vector<double> e2e_us;      ///< per ok reply, from the scheduled send
  std::vector<double> late_us;     ///< per request: actual minus scheduled send
  std::vector<double> received_s;  ///< receive instant of each ok reply
  std::uint32_t max_version = 0;

  double p(double q) const { return quantile(e2e_us, q); }
  double failed_share() const {
    return sent > 0 ? static_cast<double>(wrong + missing) / static_cast<double>(sent) : 1.0;
  }
  /// Ok replies per second in each 500 ms window between the 10% and 90%
  /// receive instants: the served rate while the queue is full, before
  /// the tail drains.
  std::vector<double> window_rates() const {
    constexpr double kWindowS = 0.5;
    const double t10 = quantile(received_s, 0.1);
    const double t90 = quantile(received_s, 0.9);
    std::vector<double> rates;
    for (double lo = t10; lo + kWindowS <= t90; lo += kWindowS) {
      const auto first = std::lower_bound(received_s.begin(), received_s.end(), lo);
      const auto last = std::lower_bound(first, received_s.end(), lo + kWindowS);
      rates.push_back(static_cast<double>(last - first) / kWindowS);
    }
    return rates;
  }
};

class Socket {
 public:
  explicit Socket(std::uint16_t port) : fd_(::socket(AF_INET, SOCK_DGRAM, 0)) {
    if (fd_ < 0) throw std::runtime_error(std::string("client socket: ") + std::strerror(errno));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const int buf = 1 << 22;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &buf, sizeof(buf));
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &buf, sizeof(buf));
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
      const std::string err = std::strerror(errno);
      ::close(fd_);
      throw std::runtime_error("client connect: " + err);
    }
  }
  ~Socket() { ::close(fd_); }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  int fd() const { return fd_; }

 private:
  int fd_;
};

/// Datagram buffers wired into mmsghdr slots for sendmmsg/recvmmsg.
template <std::size_t kSize>
struct MsgBatch {
  static constexpr std::size_t kSlots = 64;
  std::array<std::array<std::uint8_t, kSize>, kSlots> bufs;
  std::array<iovec, kSlots> iov;
  std::array<mmsghdr, kSlots> msgs;
  MsgBatch() {
    for (std::size_t i = 0; i < kSlots; ++i) {
      iov[i] = {bufs[i].data(), bufs[i].size()};
      std::memset(&msgs[i], 0, sizeof(msgs[i]));
      msgs[i].msg_hdr.msg_iov = &iov[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
    }
  }
};

/// Distinct requests per phase: later requests reuse them cyclically (each
/// send keeps its own request id), which bounds the reference decisions
/// computed before the phase.
constexpr std::size_t kDistinctRequests = 1 << 15;

/// The requests of one phase, their reference actions, and the Poisson
/// send schedule — all drawn from the phase seed before the first send.
struct Traffic {
  std::vector<Request> requests;  ///< kDistinctRequests at most
  std::vector<int> expected;      ///< reference action of each request
  std::vector<std::int64_t> due_ns;
  double rate = 0.0;

  std::size_t size() const { return due_ns.size(); }
  const Request& request(std::size_t i) const { return requests[i % requests.size()]; }
  int expected_action(std::size_t i) const { return expected[i % expected.size()]; }
};

/// Reference greedy action of every request: the same decision pipeline as
/// a server worker, run in-process on the batch-1 path.
std::vector<int> reference_actions(const dosc::sim::Scenario& scenario,
                                   const dosc::core::TrainedPolicy& policy,
                                   const std::vector<Request>& requests) {
  const dosc::sim::Simulator oracle(scenario, dosc::serve::ServerConfig{}.oracle_seed);
  dosc::serve::DecisionEngine engine(oracle, policy.max_degree, 1);
  const dosc::rl::ActorCritic net = policy.instantiate();
  std::vector<int> expected(requests.size());
  std::vector<int> actions;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (!engine.bind(requests[i], 0)) throw std::runtime_error("serve: invalid request in mix");
    engine.decide(net, 1, actions);
    expected[i] = actions[0];
  }
  return expected;
}

Traffic make_traffic(const dosc::sim::Scenario& scenario, const dosc::core::TrainedPolicy& policy,
                     double rate, double seconds, std::uint64_t seed) {
  Traffic t;
  t.rate = rate;
  const std::size_t n = static_cast<std::size_t>(rate * seconds);
  t.requests = dosc::serve::make_request_mix(scenario, std::min(n, kDistinctRequests), seed);
  t.expected = reference_actions(scenario, policy, t.requests);
  dosc::util::Rng rng(seed ^ 0x73656e64ULL);  // decorrelated from the request mix
  double at = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    at += rng.exponential(1e9 / rate);
    t.due_ns.push_back(static_cast<std::int64_t>(at));
  }
  return t;
}

/// Open-loop client: one sender and one receiver thread. The cookie
/// carries the scheduled send instant, so latency includes any wait a stall
/// imposes on later requests; the sender records how late it ran.
PhaseReport run_client(std::uint16_t port, const Traffic& traffic) {
  const std::size_t n = traffic.size();
  Socket socket(port);
  PhaseReport report;
  report.rate = traffic.rate;
  report.late_us.reserve(n);
  std::vector<double> e2e_by_id(n, -1.0);
  std::vector<std::uint8_t> seen(n, 0);
  std::atomic<bool> sender_done{false};
  std::atomic<std::uint64_t> sent{0};
  const std::int64_t origin = now_ns() + 1'000'000;  // first send 1 ms out

  std::thread receiver([&] {
    MsgBatch<dosc::serve::wire::kMaxDatagram> batch;
    std::uint64_t received = 0;
    std::int64_t last_progress = now_ns();
    while (true) {
      const int got = ::recvmmsg(socket.fd(), batch.msgs.data(), batch.kSlots, MSG_DONTWAIT,
                                 nullptr);
      if (got > 0) {
        const std::int64_t now = now_ns();
        last_progress = now;
        for (int i = 0; i < got; ++i) {
          Response r;
          if (dosc::serve::wire::decode_response(batch.bufs[i].data(), batch.msgs[i].msg_len,
                                                 r) != dosc::serve::wire::DecodeError::kOk ||
              r.request_id >= n || seen[r.request_id] != 0) {
            ++report.wrong;
            continue;
          }
          seen[r.request_id] = 1;
          ++received;
          if (r.status != dosc::serve::wire::Status::kOk ||
              static_cast<int>(r.action) != traffic.expected_action(r.request_id)) {
            ++report.wrong;
            continue;
          }
          ++report.ok;
          report.max_version = std::max(report.max_version, r.policy_version);
          e2e_by_id[r.request_id] =
              static_cast<double>(now - origin - static_cast<std::int64_t>(r.cookie)) * 1e-3;
          report.received_s.push_back(static_cast<double>(now - origin) * 1e-9);
        }
        continue;
      }
      const bool done = sender_done.load(std::memory_order_acquire);
      if (done && received >= sent.load(std::memory_order_acquire)) break;
      if (done && now_ns() - last_progress > 200'000'000) break;
      pollfd pfd{socket.fd(), POLLIN, 0};
      ::poll(&pfd, 1, 5);
    }
  });

  // Sender: every request whose instant has passed goes out in one
  // sendmmsg burst; it sleeps only while the next instant is far enough.
  MsgBatch<dosc::serve::wire::kRequestSize> batch;
  std::string send_error;
  for (std::size_t next = 0; next < n && send_error.empty();) {
    const std::int64_t now = now_ns() - origin;
    if (traffic.due_ns[next] > now) {
      const std::int64_t gap = traffic.due_ns[next] - now;
      if (gap > 20'000) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(gap - 10'000));
      } else {
        std::this_thread::yield();
      }
      continue;
    }
    std::size_t due = 0;
    while (due < batch.kSlots && next + due < n && traffic.due_ns[next + due] <= now) {
      Request request = traffic.request(next + due);
      request.request_id = next + due;
      request.cookie = static_cast<std::uint64_t>(traffic.due_ns[next + due]);
      dosc::serve::wire::encode_request(request, batch.bufs[due].data());
      report.late_us.push_back(static_cast<double>(now - traffic.due_ns[next + due]) * 1e-3);
      ++due;
    }
    std::size_t fired = 0;
    while (fired < due) {
      const int out = ::sendmmsg(socket.fd(), batch.msgs.data() + fired,
                                 static_cast<unsigned>(due - fired), 0);
      if (out > 0) {
        fired += static_cast<std::size_t>(out);
      } else if (errno == EAGAIN || errno == EINTR || errno == ENOBUFS) {
        pollfd pfd{socket.fd(), POLLOUT, 0};
        ::poll(&pfd, 1, 5);
      } else {
        send_error = std::strerror(errno);
        break;
      }
    }
    next += due;
    sent.fetch_add(due, std::memory_order_release);
  }
  sender_done.store(true, std::memory_order_release);
  receiver.join();
  if (!send_error.empty()) throw std::runtime_error("client sendmmsg: " + send_error);

  report.sent = sent.load();
  report.missing = report.sent - std::min<std::uint64_t>(report.sent, report.ok + report.wrong);
  for (const double us : e2e_by_id) {
    if (us >= 0.0) report.e2e_us.push_back(us);
  }
  return report;
}

/// Publishes the policy every 5 ms until stopped; times each publish.
class Publisher {
 public:
  Publisher(dosc::serve::UdpServer& server, const dosc::core::TrainedPolicy& policy)
      : thread_([this, &server, &policy] {
          double next = now_s();
          while (!stop_.load(std::memory_order_acquire)) {
            const std::int64_t t0 = now_ns();
            server.publish(policy);
            publish_us_.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
            next += kPublishPeriodS;
            const double wait = next - now_s();
            if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
          }
        }) {}
  ~Publisher() { stop(); }
  Publisher(const Publisher&) = delete;
  Publisher& operator=(const Publisher&) = delete;

  /// Stops and joins; the publish times are complete afterwards.
  const std::vector<double>& stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
    return publish_us_;
  }

 private:
  std::atomic<bool> stop_{false};
  std::vector<double> publish_us_;
  std::thread thread_;  // last: starts after the members it uses
};

/// One phase against a fresh, warmed-up server, so the server's own
/// histograms describe this phase alone.
struct Served {
  PhaseReport client;
  std::vector<double> publish_us;
  dosc::telemetry::Histogram decide_us;
  dosc::telemetry::Histogram request_decide_us;
  dosc::telemetry::Histogram batch_size;
  dosc::serve::ServerStats stats;
};

Served serve_phase(const dosc::sim::Scenario& scenario, const dosc::core::TrainedPolicy& policy,
                   const Traffic& warmup, const Traffic& traffic) {
  Served out;
  dosc::serve::UdpServer server(scenario, policy, dosc::serve::ServerConfig{});
  server.start();
  run_client(server.port(), warmup);
  {
    Publisher publisher(server, policy);
    out.client = run_client(server.port(), traffic);
    out.publish_us = publisher.stop();
  }
  server.stop();
  out.decide_us = server.decide_us_histogram();
  out.request_decide_us = server.request_decide_us_histogram();
  out.batch_size = server.batch_size_histogram();
  out.stats = server.stats();
  return out;
}

/// Busy seconds per stage of the traced pipeline.
struct StageClock {
  double decode_s = 0.0;   ///< serve.decode: wire::decode_request
  double bind_s = 0.0;     ///< core.obs_build: DecisionEngine::bind
  double decide_s = 0.0;   ///< nn.forward: snapshot pin + DecisionEngine::decide
  double reply_s = 0.0;    ///< serve.reply: encode, check, batcher update
  double publish_s = 0.0;  ///< serve.publish: snapshot build + PolicyStore::publish
  std::uint64_t rows = 0;
  std::uint64_t batches = 0;
  std::vector<double> publish_us;
};

/// The request-to-reply path of one UdpServer worker without the socket,
/// built from the same public pieces with the server's default
/// configuration. Not movable: the engine keeps a reference to the oracle.
class Pipeline {
 public:
  Pipeline(const dosc::sim::Scenario& scenario, const dosc::core::TrainedPolicy& policy)
      : policy_(&policy),
        network_degree_(scenario.network().max_degree()),
        oracle_(scenario, dosc::serve::ServerConfig{}.oracle_seed),
        batcher_(dosc::serve::ServerConfig{}.batcher),
        engine_(oracle_, policy.max_degree, batcher_.config().max_batch),
        requests_(batcher_.config().max_batch),
        decoded_(batcher_.config().max_batch),
        request_of_row_(batcher_.config().max_batch),
        replies_(batcher_.config().max_batch * dosc::serve::wire::kResponseSize) {
    publish();
  }
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  std::size_t max_batch() const { return batcher_.config().max_batch; }
  std::uint32_t version() const { return version_; }

  /// Serves `n` encoded requests as one batch; returns how many got no
  /// reply or a reply whose action differs from `expected`. With `clock`,
  /// times each stage.
  std::size_t serve_batch(const std::uint8_t* datagrams, std::size_t n, const int* expected,
                          StageClock* clock) {
    namespace wire = dosc::serve::wire;
    std::int64_t t = clock != nullptr ? now_ns() : 0;
    const auto lap = [&](double StageClock::*stage) {
      if (clock == nullptr) return;
      const std::int64_t now = now_ns();
      clock->*stage += static_cast<double>(now - t) * 1e-9;
      t = now;
    };
    std::size_t bad = 0;
    {
      dosc::telemetry::ScopedSpan span("serve", "serve.decode");
      for (std::size_t i = 0; i < n; ++i) {
        decoded_[i] = wire::decode_request(datagrams + i * wire::kRequestSize,
                                           wire::kRequestSize,
                                           requests_[i]) == wire::DecodeError::kOk;
      }
    }
    lap(&StageClock::decode_s);
    std::size_t rows = 0;
    {
      dosc::telemetry::ScopedSpan span("core", "core.obs_build");
      for (std::size_t i = 0; i < n; ++i) {
        if (decoded_[i] && engine_.bind(requests_[i], rows)) {
          request_of_row_[rows++] = i;
        } else {
          ++bad;
        }
      }
    }
    lap(&StageClock::bind_s);
    std::uint32_t version = 0;
    if (rows > 0) {
      dosc::telemetry::ScopedSpan span("nn", "nn.forward");
      const dosc::serve::PolicyStore::Handle snapshot = store_.acquire();
      version = snapshot->version;
      engine_.decide(snapshot->net, rows, actions_);
    }
    lap(&StageClock::decide_s);
    {
      dosc::telemetry::ScopedSpan span("serve", "serve.reply");
      for (std::size_t r = 0; r < rows; ++r) {
        const std::size_t i = request_of_row_[r];
        wire::Response response;
        response.request_id = requests_[i].request_id;
        response.cookie = requests_[i].cookie;
        response.action = static_cast<std::uint16_t>(actions_[r]);
        response.policy_version = version;
        response.batch_size = static_cast<std::uint16_t>(rows);
        wire::encode_response(response, replies_.data() + r * wire::kResponseSize);
        if (actions_[r] != expected[i]) ++bad;
      }
      batcher_.on_batch(rows);
    }
    lap(&StageClock::reply_s);
    if (clock != nullptr) {
      clock->rows += rows;
      ++clock->batches;
    }
    if (++batches_ % kPublishEveryBatches == 0) {
      {
        dosc::telemetry::ScopedSpan span("serve", "serve.publish");
        publish();
      }
      if (clock != nullptr) {
        clock->publish_us.push_back(static_cast<double>(now_ns() - t) * 1e-3);
      }
      lap(&StageClock::publish_s);
    }
    return bad;
  }

 private:
  void publish() {
    store_.publish(dosc::serve::make_serve_policy(*policy_, network_degree_, ++version_));
  }

  const dosc::core::TrainedPolicy* policy_;
  std::size_t network_degree_;
  dosc::sim::Simulator oracle_;  ///< never run: the serving-time state
  dosc::serve::AdaptiveBatcher batcher_;
  dosc::serve::DecisionEngine engine_;
  dosc::serve::PolicyStore store_;
  std::uint32_t version_ = 0;
  std::uint64_t batches_ = 0;
  std::vector<Request> requests_;
  std::vector<std::uint8_t> decoded_;
  std::vector<std::size_t> request_of_row_;
  std::vector<int> actions_;
  std::vector<std::uint8_t> replies_;
};

/// The capacity inputs: distinct requests, encoded once, with their
/// reference actions.
struct Encoded {
  std::vector<std::uint8_t> datagrams;  ///< kRequestSize bytes each
  std::vector<int> expected;

  std::size_t size() const { return expected.size(); }
};

Encoded make_capacity_inputs(const dosc::sim::Scenario& scenario,
                             const dosc::core::TrainedPolicy& policy, std::uint64_t seed) {
  const std::vector<Request> requests =
      dosc::serve::make_request_mix(scenario, kDistinctRequests, seed);
  Encoded e;
  e.expected = reference_actions(scenario, policy, requests);
  e.datagrams.resize(requests.size() * dosc::serve::wire::kRequestSize);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    dosc::serve::wire::encode_request(requests[i],
                                      e.datagrams.data() + i * dosc::serve::wire::kRequestSize);
  }
  return e;
}

struct PipelineRun {
  std::vector<double> rates;  ///< decisions per second of each repetition
  std::uint64_t decisions = 0;
  std::uint64_t bad = 0;
  double wall_s = 0.0;
  StageClock clock;
};

/// Full batches through `pipeline`, cycling through `inputs`, in
/// repetitions of kBatchesPerRep batches until `seconds` have passed.
PipelineRun run_pipeline(Pipeline& pipeline, const Encoded& inputs, double seconds,
                         bool timed_stages) {
  PipelineRun run;
  StageClock* clock = timed_stages ? &run.clock : nullptr;
  std::size_t cursor = 0;
  const double start = now_s();
  while (run.rates.empty() || now_s() - start < seconds) {
    const double t0 = now_s();
    std::uint64_t decisions = 0;
    for (std::size_t b = 0; b < kBatchesPerRep; ++b) {
      const std::size_t n = std::min(pipeline.max_batch(), inputs.size() - cursor);
      run.bad += pipeline.serve_batch(
          inputs.datagrams.data() + cursor * dosc::serve::wire::kRequestSize, n,
          inputs.expected.data() + cursor, clock);
      decisions += n;
      cursor = (cursor + n) % inputs.size();
    }
    run.rates.push_back(static_cast<double>(decisions) / (now_s() - t0));
    run.decisions += decisions;
  }
  run.wall_s = now_s() - start;
  return run;
}

}  // namespace

Result run_serve(const Options& options) {
  Result result;
  const dosc::sim::Scenario scenario = dosc::sim::make_base_scenario();
  dosc::core::TrainedPolicy policy = load_fixed_policy(options);
  const Traffic warmup =
      make_traffic(scenario, policy, kWarmupRate, kWarmupS, derive_seed(options.seed, 99));
  // Set-up: policy load (checksum verified), the pipeline (state oracle,
  // engine, first publish), server construction and start, and a warm-up
  // burst at the reference rate.
  std::unique_ptr<Pipeline> pipeline;
  const double setup_s = time_setup([&] {
    policy = load_fixed_policy(options);
    pipeline = std::make_unique<Pipeline>(scenario, policy);
    dosc::serve::UdpServer server(scenario, policy, dosc::serve::ServerConfig{});
    server.start();
    run_client(server.port(), warmup);
  });

  const double measured_s = options.trace ? options.seconds / 2 : options.seconds;
  const double pipeline_s = measured_s * kPipelineShare;
  const double socket_s = measured_s - pipeline_s;
  const Encoded capacity = make_capacity_inputs(scenario, policy, derive_seed(options.seed, 3));
  const Traffic reference =
      make_traffic(scenario, policy, kReferenceRate, socket_s, derive_seed(options.seed, 2));

  const auto account_pipeline = [&](const PipelineRun& run) {
    result.attempted += run.decisions;
    result.failed += run.bad;
    if (run.bad > 0) result.fail("serve pipeline: actions differ from the reference decisions");
  };
  const auto account_socket = [&](const Served& served, bool overload) {
    // Requests the kernel sheds at overload are the overload itself, not
    // failures; a wrong reply is a failure anywhere.
    const PhaseReport& c = served.client;
    result.attempted += overload ? c.ok + c.wrong : c.sent;
    result.failed += overload ? c.wrong : c.wrong + c.missing;
    if (c.wrong > 0) result.fail("serve: replies with a wrong action or status");
    if (!overload && c.failed_share() > kMaxFailedShare) {
      result.fail("serve: the reference rate lost " + std::to_string(c.missing) + " replies");
    }
    if (served.publish_us.empty() || c.max_version < 2) {
      result.fail("serve: no published policy version was served");
    }
  };
  const auto metrics = [&](const PipelineRun& run) {
    const double ok =
        1.0 - static_cast<double>(result.failed) / static_cast<double>(result.attempted);
    return end_to_end_metrics(setup_s, ok, best_rate("serve pipeline decisions", run.rates));
  };

  const PipelineRun untraced = run_pipeline(*pipeline, capacity, pipeline_s, false);
  account_pipeline(untraced);
  const Served ref = serve_phase(scenario, policy, warmup, reference);
  account_socket(ref, false);
  std::printf("# serve: pipeline %llu decisions at batch %zu, policy version %u; socket "
              "reference %.0f/s: p50 %.1f us, p99 %.1f us over %zu replies, generator late "
              "p99 %.1f us, %zu publishes\n",
              static_cast<unsigned long long>(untraced.decisions), pipeline->max_batch(),
              pipeline->version(), ref.client.rate, ref.client.p(0.5), ref.client.p(0.99),
              ref.client.e2e_us.size(), quantile(ref.client.late_us, 0.99),
              ref.publish_us.size());
  if (pipeline->version() < 2) result.fail("serve pipeline: the policy was never republished");
  const std::vector<Metric> e2e = metrics(untraced);
  if (!options.trace) {
    result.metrics = e2e;
    return result;
  }

  const std::uint64_t gemm0 = dosc::nn::gemm::flop_count();
  const std::uint64_t gemv0 = dosc::nn::gemv::flop_count();
  set_tracing(true);
  const PipelineRun traced = run_pipeline(*pipeline, capacity, pipeline_s, true);
  set_tracing(false);
  account_pipeline(traced);
  const double gemm_flops = static_cast<double>(dosc::nn::gemm::flop_count() - gemm0);
  const double gemv_flops = static_cast<double>(dosc::nn::gemv::flop_count() - gemv0);
  const Traffic overload =
      make_traffic(scenario, policy, kOverloadRate, socket_s, derive_seed(options.seed, 1));
  const Served cap = serve_phase(scenario, policy, warmup, overload);
  account_socket(cap, true);
  // The median window, not the best: a window's count can also be inflated
  // by the burst the receiver drains after a stall.
  const std::vector<double> windows = cap.client.window_rates();
  print_rates("serve socket replies at overload", windows);

  // Mean request at the reference rate: generator lateness, the server's
  // per-request decide share, and the rest (socket loop, kernel, wake-ups,
  // queueing) by difference.
  const auto mean = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (const double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  const double late_us = mean(ref.client.late_us);
  const double decide_us = ref.request_decide_us.mean();
  const double net_us = mean(ref.client.e2e_us) - late_us - decide_us;
  std::printf("# serve socket, mean reference-rate request: generator late %.1f us, decide "
              "%.1f us, socket loop + kernel + wake-ups %.1f us\n",
              late_us, decide_us, net_us);

  const StageClock& clock = traced.clock;
  const double overhead = -print_overhead(e2e, metrics(traced), "rate_per_s");
  const double coverage = print_layer_table(
      "serve (in-process pipeline)", traced.wall_s,
      {{"serve.decode", clock.decode_s},
       {"core.obs_build", clock.bind_s},
       {"nn.forward", clock.decide_s},
       {"serve.reply", clock.reply_s},
       {"serve.publish", clock.publish_s},
       {"unattributed",
        traced.wall_s - clock.decode_s - clock.bind_s - clock.decide_s - clock.reply_s -
            clock.publish_s,
        false}});
  std::vector<double> publish_us = clock.publish_us;
  publish_us.insert(publish_us.end(), ref.publish_us.begin(), ref.publish_us.end());
  publish_us.insert(publish_us.end(), cap.publish_us.begin(), cap.publish_us.end());
  emit_per_layer(
      result,
      {{"core.obs_build_s", clock.bind_s},
       {"core.obs_build_calls", static_cast<double>(clock.rows)},
       {"nn.forward_s", clock.decide_s},
       {"nn.forward.rows_p50", static_cast<double>(clock.rows) /
                                   static_cast<double>(clock.batches)},
       {"nn.gemm.flops", gemm_flops},
       {"nn.gemv.flops", gemv_flops},
       {"nn.gflops", (gemm_flops + gemv_flops) / clock.decide_s * 1e-9},
       {"serve.e2e_us.p50", ref.client.p(0.5)},
       {"serve.e2e_us.p99", ref.client.p(0.99)},
       {"serve.decide_us.p50", ref.decide_us.percentile(50)},
       {"serve.decide_us.p99", ref.decide_us.percentile(99)},
       {"serve.request_decide_us.p50", ref.request_decide_us.percentile(50)},
       {"serve.batch_size.p50", ref.batch_size.percentile(50)},
       {"serve.batch_size.p99", cap.batch_size.percentile(99)},
       {"serve.gemm_batch_share",
        cap.stats.batches > 0 ? static_cast<double>(cap.stats.gemm_batches) /
                                    static_cast<double>(cap.stats.batches)
                              : 0.0},
       {"serve.net_us", net_us},
       {"serve.client_late_us.p99", quantile(ref.client.late_us, 0.99)},
       {"serve.publish_us.p50", quantile(publish_us, 0.5)},
       {"serve.publish_us.p99", quantile(publish_us, 0.99)},
       {"serve.socket_rate_per_s", median(windows)},
       {"trace.coverage", coverage},
       {"trace.overhead", overhead}});
  return result;
}

}  // namespace perfbench
