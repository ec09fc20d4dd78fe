// serve_mix: an open loop over AF_UNIX into the repository's SocketServer
// (default ServiceConfig: one worker, max_batch 8, memory-only cache).  One
// generator replays a seeded Poisson schedule at three fixed rates through
// at most four connections; every request is timed from its due time.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <thread>

#include "core/landscape.hpp"
#include "core/mutation_model.hpp"
#include "obs/histogram.hpp"
#include "parallel/engine.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "solvers/quasispecies_solver.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using qs::service::LandscapeKind;
using qs::service::SolveReply;
using qs::service::SolveRequest;
using qs::service::StatusCode;

constexpr unsigned kConnections = 4;
constexpr int kSetupReps = 21;
constexpr double kLatencyLimitMs = 1000.0;
constexpr double kBacklogMs = 100.0;
constexpr double kAgreeEigenvalue = 1e-8;  ///< 100x the request tolerance.
constexpr double kAgreeClasses = 1e-7;

struct Phase {
  const char* name;
  double rate;   ///< Requests per second.
  double share;  ///< Share of the pass time.
};
constexpr Phase kPhases[3] = {
    {"idle", 4.0, 0.40},
    {"nominal", 10.0, 0.45},
    {"high", 25.0, 0.15},
};

/// Fresh scenarios are dealt from shuffled decks of this fixed composition,
/// and every block of kBlock requests holds exactly kRepeatsPerBlock repeats
/// of earlier scenarios, so every seed offers the same mix; the seed picks
/// the order, the landscape parameters and the arrival times.
struct DeckCard {
  LandscapeKind kind;
  unsigned nu;
  unsigned count;
};
constexpr DeckCard kDeck[] = {
    {LandscapeKind::random, 16, 40},
    {LandscapeKind::single_peak, 16, 6},
    {LandscapeKind::random, 18, 2},
    {LandscapeKind::single_peak, 18, 1},
    // Linear landscapes converge in hundreds of iterations; they stay rare
    // and at nu = 16 so one of them does not hold the single worker long.
    {LandscapeKind::linear, 16, 1},
};
constexpr unsigned kBlock = 10;
constexpr unsigned kRepeatsPerBlock = 3;
constexpr std::size_t kIdle = 0;
constexpr std::size_t kNominal = 1;

struct Arrival {
  std::uint64_t due_offset_ns = 0;
  std::size_t scenario = 0;
};

struct Sample {
  std::size_t scenario = 0;
  std::size_t phase = 0;
  std::uint64_t due_ns = 0;
  std::uint64_t send_ns = 0;
  std::uint64_t done_ns = 0;
  bool transport_error = false;
  std::string error;
  SolveReply reply;

  double latency_ms() const { return ns_to_ms(done_ns - due_ns); }
  double late_ms() const { return ns_to_ms(send_ns - due_ns); }
};

/// The seeded request stream: scenario pool plus per-phase arrival times.
struct Schedule {
  std::vector<SolveRequest> scenarios;
  std::vector<std::vector<Arrival>> phases;
};

Schedule make_schedule(std::uint64_t seed, double seconds) {
  Schedule out;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);

  std::vector<const DeckCard*> deck;
  auto fresh = [&] {
    if (deck.empty()) {
      for (const DeckCard& card : kDeck) deck.insert(deck.end(), card.count, &card);
      std::shuffle(deck.begin(), deck.end(), rng);
    }
    const DeckCard& card = *deck.back();
    deck.pop_back();
    SolveRequest r;
    r.landscape = card.kind;
    r.nu = card.nu;
    r.p = unit(rng) < 0.5 ? 0.01 : 0.02;
    switch (card.kind) {
      case LandscapeKind::single_peak:
        r.param0 = 2.0 + 8.0 * unit(rng);
        r.param1 = 1.0;
        break;
      case LandscapeKind::linear:
        r.param0 = 5.0 + 5.0 * unit(rng);
        r.param1 = 1.0;
        break;
      default:
        r.param0 = 5.0;
        r.param1 = 1.0;
        r.seed = rng();
    }
    return r;
  };

  std::vector<bool> block;  // repeat flags of the current block
  for (const Phase& phase : kPhases) {
    std::exponential_distribution<double> gap(phase.rate);
    std::vector<Arrival> arrivals;
    const double length = seconds * phase.share;
    for (double t = gap(rng); t < length; t += gap(rng)) {
      if (block.empty()) {
        block.assign(kBlock, false);
        std::fill(block.begin(), block.begin() + kRepeatsPerBlock, true);
        std::shuffle(block.begin(), block.end(), rng);
      }
      const bool repeat = block.back() && !out.scenarios.empty();
      block.pop_back();
      Arrival a;
      a.due_offset_ns = static_cast<std::uint64_t>(t * 1e9);
      if (repeat) {
        a.scenario = std::uniform_int_distribution<std::size_t>(
            0, out.scenarios.size() - 1)(rng);
      } else {
        out.scenarios.push_back(fresh());
        a.scenario = out.scenarios.size() - 1;
      }
      arrivals.push_back(a);
    }
    out.phases.push_back(std::move(arrivals));
  }
  return out;
}

/// A live server with its client connections.
struct Rig {
  std::unique_ptr<qs::service::SocketServer> server;
  std::vector<std::unique_ptr<qs::service::Client>> clients;
  std::mutex batch_mutex;
  std::vector<std::uint64_t> batch_starts;  ///< before_batch_hook stamps.

  ~Rig() {
    if (server) server->stop();
  }
};

std::unique_ptr<Rig> start_rig(const std::filesystem::path& socket, bool hook) {
  auto rig = std::make_unique<Rig>();
  qs::service::SocketServerConfig config;
  config.socket_path = socket;
  if (hook) {
    Rig* raw = rig.get();
    config.service.before_batch_hook = [raw] {
      const std::lock_guard<std::mutex> lock(raw->batch_mutex);
      raw->batch_starts.push_back(now_ns());
    };
  }
  rig->server = std::make_unique<qs::service::SocketServer>(config);
  rig->server->start();
  for (unsigned i = 0; i < kConnections; ++i) {
    rig->clients.push_back(std::make_unique<qs::service::Client>(socket));
    if (!rig->clients.back()->ping()) throw std::runtime_error("serve_mix: ping failed");
  }
  return rig;
}

/// Replays one pass of the schedule against `rig`.
std::vector<Sample> replay(Rig& rig, const Schedule& schedule, bool traced) {
  std::vector<Sample> samples;
  for (std::size_t phase = 0; phase < schedule.phases.size(); ++phase) {
    const std::vector<Arrival>& arrivals = schedule.phases[phase];
    std::vector<Sample> out(arrivals.size());
    std::atomic<std::size_t> next{0};
    const std::uint64_t base = now_ns() + 5000000;  // 5 ms to get the senders going
    auto sender = [&](qs::service::Client& client) {
      for (std::size_t i = next++; i < arrivals.size(); i = next++) {
        Sample& s = out[i];
        s.scenario = arrivals[i].scenario;
        s.phase = phase;
        s.due_ns = base + arrivals[i].due_offset_ns;
        while (now_ns() < s.due_ns) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(s.due_ns - now_ns()));
        }
        SolveRequest request = schedule.scenarios[s.scenario];
        request.trace_id = i + 1 + (phase << 32);
        s.send_ns = now_ns();
        try {
          s.reply = client.solve(request);
        } catch (const std::exception& e) {
          s.transport_error = true;
          s.error = e.what();
        }
        s.done_ns = now_ns();
        if (traced) {
          const std::uint64_t root = tracer().next_id();
          record_span("service.generator_late", root, request.trace_id, s.due_ns, s.send_ns);
          record_span("service.client_call", root, request.trace_id, s.send_ns, s.done_ns);
          Span span;
          span.name = "service.request";
          span.id = root;
          span.trace = request.trace_id;
          span.start_ns = s.due_ns;
          span.end_ns = s.done_ns;
          tracer().record(std::move(span));
        }
      }
    };
    std::vector<std::thread> threads;
    for (auto& client : rig.clients) threads.emplace_back(sender, std::ref(*client));
    for (std::thread& t : threads) t.join();
    samples.insert(samples.end(), out.begin(), out.end());
  }
  return samples;
}

struct Reference {
  double eigenvalue = 0.0;
  std::vector<double> classes;
};

/// Exact answers: the Section 5.1 reduced solver for error-class landscapes,
/// a facade solve at tolerance 1e-13 for random ones.
Reference reference(const SolveRequest& r) {
  qs::solvers::QuasispeciesResult result;
  switch (r.landscape) {
    case LandscapeKind::single_peak:
      result = qs::solvers::solve(
          r.p, qs::core::ErrorClassLandscape::single_peak(r.nu, r.param0, r.param1));
      break;
    case LandscapeKind::linear:
      result = qs::solvers::solve(
          r.p, qs::core::ErrorClassLandscape::linear(r.nu, r.param0, r.param1));
      break;
    default: {
      qs::solvers::SolveOptions options;
      options.tolerance = 1e-13;
      options.engine = &qs::parallel::parallel_engine();
      result = qs::solvers::solve(
          qs::core::MutationModel::uniform(r.nu, r.p),
          qs::core::Landscape::random(r.nu, r.param0, r.param1, r.seed), options);
    }
  }
  return {result.eigenvalue, result.class_concentrations};
}

bool bitwise_equal(const SolveReply& a, const SolveReply& b) {
  return a.eigenvalue == b.eigenvalue && a.residual == b.residual &&
         a.iterations == b.iterations && a.class_concentrations == b.class_concentrations;
}

/// Checks every sample of a pass; returns nothing, counts into `out`.
void check(const Schedule& schedule, const std::vector<Sample>& samples,
           std::map<std::size_t, Reference>& references, RunResult& out) {
  // The first solved (non-cached) reply per scenario, by completion time.
  std::map<std::size_t, const Sample*> first;
  for (const Sample& s : samples) {
    if (s.transport_error || s.reply.status != StatusCode::ok || s.reply.cache_hit) continue;
    auto [it, inserted] = first.emplace(s.scenario, &s);
    if (!inserted && s.done_ns < it->second->done_ns) it->second = &s;
  }
  for (const Sample& s : samples) {
    const SolveRequest& r = schedule.scenarios[s.scenario];
    const std::string label =
        fmt("%s nu=%u p=%.3g", qs::service::to_string(r.landscape), r.nu, r.p);
    if (s.transport_error) {
      out.count(false, label + ": transport error: " + s.error);
      continue;
    }
    if (s.reply.status != StatusCode::ok) {
      out.count(false, label + ": status " + qs::service::to_string(s.reply.status) + ": " +
                           s.reply.message);
      continue;
    }
    bool ok = true;
    if (s.reply.cache_hit) {
      const auto it = first.find(s.scenario);
      ++out.oracle_checks;
      ok = it != first.end() && bitwise_equal(s.reply, it->second->reply);
      out.count(ok, label + ": cache hit differs from the first reply for its scenario");
      continue;
    }
    auto ref = references.find(s.scenario);
    if (ref == references.end()) ref = references.emplace(s.scenario, reference(r)).first;
    ++out.oracle_checks;
    const Reference& exact = ref->second;
    ok = std::abs(s.reply.eigenvalue - exact.eigenvalue) <=
             kAgreeEigenvalue * std::abs(exact.eigenvalue) &&
         s.reply.class_concentrations.size() == exact.classes.size();
    for (std::size_t k = 0; ok && k < exact.classes.size(); ++k) {
      ok = std::abs(s.reply.class_concentrations[k] - exact.classes[k]) <= kAgreeClasses;
    }
    out.count(ok, fmt("%s: eigenvalue %.17g, reference %.17g", label.c_str(),
                      s.reply.eigenvalue, exact.eigenvalue));
  }
}

/// One record per request: phase, scenario class, outcome and timings.
std::string samples_json(const Schedule& schedule, const std::vector<Sample>& samples) {
  std::string out = "[";
  for (const Sample& s : samples) {
    const SolveRequest& r = schedule.scenarios[s.scenario];
    if (out.size() > 1) out += ",";
    out += fmt("{\"phase\":\"%s\",\"landscape\":\"%s\",\"nu\":%u,\"p\":%g,"
               "\"scenario\":%zu,\"status\":\"%s\",\"cache_hit\":%s,\"width\":%u,"
               "\"latency_ms\":%s,\"late_ms\":%s}",
               kPhases[s.phase].name, qs::service::to_string(r.landscape), r.nu, r.p,
               s.scenario,
               s.transport_error ? "transport_error" : qs::service::to_string(s.reply.status),
               s.reply.cache_hit ? "true" : "false", s.reply.batch_width,
               json_number(s.latency_ms()).c_str(), json_number(s.late_ms()).c_str());
  }
  return out + "]";
}

struct PhaseStats {
  std::vector<double> latency_ms;
  std::vector<double> late_ms;
  std::uint64_t failures = 0;
  bool backlog = false;
};

std::vector<PhaseStats> phase_stats(const std::vector<Sample>& samples) {
  std::vector<PhaseStats> out(std::size(kPhases));
  for (const Sample& s : samples) {
    PhaseStats& p = out[s.phase];
    p.latency_ms.push_back(s.latency_ms());
    p.late_ms.push_back(s.late_ms());
    if (s.transport_error || s.reply.status != StatusCode::ok) ++p.failures;
  }
  // A backlog grows when the generator falls further behind its schedule:
  // the last third of a phase is sent, at the median, more than
  // kBacklogMs later than the first third (samples are in due order).
  for (PhaseStats& p : out) {
    const std::size_t third = p.late_ms.size() / 3;
    if (third == 0) continue;
    const std::vector<double> head(p.late_ms.begin(), p.late_ms.begin() + third);
    const std::vector<double> tail(p.late_ms.end() - third, p.late_ms.end());
    p.backlog = median(tail) > median(head) + kBacklogMs;
  }
  return out;
}

double histogram_p(const qs::service::ServiceStatsSnapshot& snapshot, const std::string& name,
                   double qs::obs::HistogramSummary::*field) {
  for (const auto& h : snapshot.histograms) {
    if (h.name == name) return h.*field;
  }
  return 0.0;
}

}  // namespace

RunResult run_serve_mix(const RunConfig& config) {
  RunResult out;
  const std::filesystem::path socket = config.work_dir / "serve_mix.sock";
  const double pass_seconds = config.trace ? config.seconds / 2 : config.seconds;
  const Schedule schedule = make_schedule(config.seed, pass_seconds);

  // Set-up: server start and four connections, 21 times (it takes about a
  // millisecond, so one slow thread start would move a small sample); the
  // last rig stays up for the run.
  std::unique_ptr<Rig> rig;
  std::vector<double> setup_times;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    rig.reset();
    const std::uint64_t start = now_ns();
    rig = start_rig(socket, false);
    setup_times.push_back(static_cast<double>(now_ns() - start) * 1e-9);
  }
  const double setup_s = median(setup_times);
  qs::obs::reset_histograms();
  const std::vector<Sample> untraced = replay(*rig, schedule, false);
  const double rss = peak_rss_mib(false);
  rig.reset();

  std::map<std::size_t, Reference> references;
  check(schedule, untraced, references, out);
  out.detail_json = samples_json(schedule, untraced);
  const std::vector<PhaseStats> stats = phase_stats(untraced);

  double max_rps = 0.0;
  for (std::size_t k = 0; k < stats.size(); ++k) {
    const PhaseStats& p = stats[k];
    const Tail tail = tail_with_ten_beyond(p.latency_ms);
    const double tail_ms = tail.percentile > 0 ? tail.value
                                               : quantile(p.latency_ms, 1.0);
    const bool meets = tail_ms <= kLatencyLimitMs && p.failures == 0 && !p.backlog;
    if (meets) max_rps = kPhases[k].rate;
    out.line(fmt("phase %-8s %5.1f req/s  n=%zu  p50 %.2f ms  p%.0f %.2f ms (%zu beyond)  "
                 "late p90 %.2f ms  failed %llu  backlog %s  %s",
                 kPhases[k].name, kPhases[k].rate, p.latency_ms.size(), median(p.latency_ms),
                 tail.percentile, tail.value, tail.beyond, quantile(p.late_ms, 0.9),
                 static_cast<unsigned long long>(p.failures), p.backlog ? "yes" : "no",
                 meets ? "meets limit" : "misses limit"));
  }
  const PhaseStats& nominal = stats[kNominal];
  const Tail tail = tail_with_ten_beyond(nominal.latency_ms);
  const double p50 = median(nominal.latency_ms);
  const double idle_p50 = median(stats[kIdle].latency_ms);
  out.line(fmt("serve_p50_ms       %.3f ms  nominal rate %.0f req/s, n=%zu, timed from due time",
               p50, kPhases[kNominal].rate, nominal.latency_ms.size()));
  out.line(fmt("serve_tail_ms      %.3f ms  p%.0f at the nominal rate, %zu samples beyond it",
               tail.value, tail.percentile, tail.beyond));
  out.line(fmt("serve_idle_p50_ms  %.3f ms  idle rate %.0f req/s, n=%zu", idle_p50,
               kPhases[kIdle].rate, stats[kIdle].latency_ms.size()));
  out.line(fmt("serve_max_rps      %.0f req/s  highest fixed rate with tail <= %.0f ms, no "
               "failures, no growing backlog",
               max_rps, kLatencyLimitMs));
  out.line(fmt("peak_rss_mib       %.1f MiB", rss));
  out.line(fmt("setup_s            %.4f s   server start + %u connections; median of %d",
               setup_s, kConnections, kSetupReps));

  if (!config.trace) {
    set(out.end_to_end, "setup_s", setup_s);
    set(out.end_to_end, "p50_ms", p50);
    set(out.end_to_end, "base_p50_ms", idle_p50);
    return out;
  }

  // Traced pass: same schedule on a fresh server, with the batch hook,
  // client-side spans and a stats_snapshot() read at the end.
  rig = start_rig(socket, true);
  qs::obs::reset_histograms();
  tracer().set_enabled(true);
  const std::vector<Sample> traced = replay(*rig, schedule, true);
  qs::service::ServiceStatsSnapshot snapshot;
  {
    const ScopedSpan span("service.stats_snapshot");
    snapshot = rig->server->service().stats_snapshot();
  }
  rig->server->stop();  // joins the worker: no batch hook runs after this
  for (const std::uint64_t t : rig->batch_starts) {
    record_span("service.batch_start", 0, 0, t, t);
  }
  tracer().set_enabled(false);
  const std::size_t batch_hooks = rig->batch_starts.size();
  rig.reset();
  check(schedule, traced, references, out);

  Metrics& m = out.per_layer;
  double ok = 0.0;
  double shed = 0.0;
  double expired = 0.0;
  std::vector<double> widths;
  std::vector<double> transport_ms;
  std::vector<double> protocol_us;
  bool protocol_ok = true;
  for (const Sample& s : traced) {
    if (s.transport_error) continue;
    ok += s.reply.status == StatusCode::ok;
    shed += s.reply.status == StatusCode::rejected_overload;
    expired += s.reply.status == StatusCode::deadline_exceeded;
    if (s.reply.status == StatusCode::ok && !s.reply.cache_hit) {
      widths.push_back(s.reply.batch_width);
    }
    // queue_wait_ms is stamped at delivery, so it is the server residence.
    transport_ms.push_back(ns_to_ms(s.done_ns - s.send_ns) - s.reply.queue_wait_ms);
    const SolveRequest& request = schedule.scenarios[s.scenario];
    const std::uint64_t start = now_ns();
    const SolveRequest decoded_request = qs::service::decode_request(qs::service::encode(request));
    const SolveReply decoded_reply = qs::service::decode_reply(qs::service::encode(s.reply));
    protocol_us.push_back(static_cast<double>(now_ns() - start) * 1e-3);
    protocol_ok = protocol_ok && decoded_request.nu == request.nu &&
                  decoded_reply.eigenvalue == s.reply.eigenvalue;
  }
  ++out.oracle_checks;
  out.count(protocol_ok, "protocol encode/decode round trip changed a message");
  const std::vector<PhaseStats> traced_stats = phase_stats(traced);
  const auto& cache = snapshot.cache;
  const double lookups = static_cast<double>(cache.hits + cache.misses);
  set(m, "service.requests", static_cast<double>(traced.size()));
  set(m, "service.ok", ok);
  set(m, "service.shed", shed);
  set(m, "service.expired", expired + static_cast<double>(snapshot.queue.expired));
  set(m, "service.batches", static_cast<double>(snapshot.queue.batches));
  set(m, "service.cache_hit_ratio", lookups > 0 ? static_cast<double>(cache.hits) / lookups : 0.0);
  set(m, "service.cache_lookup_us",
      histogram_p(snapshot, "service.cache_lookup", &qs::obs::HistogramSummary::p50) * 1e6);
  set(m, "service.coalesce_width", mean(widths));
  set(m, "service.family_solve_ms",
      histogram_p(snapshot, "service.solve", &qs::obs::HistogramSummary::p50) * 1e3);
  set(m, "service.queue_wait_p50_ms",
      histogram_p(snapshot, "queue.wait", &qs::obs::HistogramSummary::p50) * 1e3);
  set(m, "service.queue_wait_p99_ms",
      histogram_p(snapshot, "queue.wait", &qs::obs::HistogramSummary::p99) * 1e3);
  set(m, "service.protocol_us", median(protocol_us));
  set(m, "service.transport_ms", median(transport_ms));
  set(m, "service.generator_late_ms", quantile(traced_stats[kNominal].late_ms, 0.9));
  set(m, "obs.trace_overhead", median(traced_stats[kNominal].latency_ms) / p50 - 1.0);
  out.line(fmt("traced pass        %zu requests, %zu batches seen by before_batch_hook",
               traced.size(), batch_hooks));
  return out;
}

}  // namespace perfbench
