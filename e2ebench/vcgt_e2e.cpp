// vcgt_e2e — one workload of the end-to-end benchmark (see README.md).
//
// Drives the system from outside through its public calls only:
// jm76::CoupledRig construction and run() (per-step stamps taken in the
// on_step callback), rig::generate_row_mesh, and serve::Server
// submit()/wait() under the benchmark's own open-loop generator.
//
//   vcgt_e2e --workload=rig2_explicit --seed=1 --seconds=20 --trace=0
//
// Prints one JSON object on its last stdout line: end-to-end metrics
// ("e2e"), per-layer metrics ("layer", traced pass only), run facts
// ("info"), the per-row flow monitors the caller checks against stored
// references ("monitors"), and the attempted/failed operation counts.
// run.py builds this program, applies the reference check and prints the
// benchmark's result line.
//
// Per-layer numbers are snapshot differences of cumulative public meters
// (Context::total_stats, CoupledRig::stats().candidates, Comm::pool_stats,
// PlanCache::stats) plus vcgt::trace spans from a separate traced segment;
// no meter is ever reset. End-to-end numbers come from untraced segments.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <limits>
#include <map>
#include <numeric>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/jm76/coupled.hpp"
#include "src/rig/annulus.hpp"
#include "src/rig/rowspec.hpp"
#include "src/serve/server.hpp"
#include "src/serve/session_spec.hpp"
#include "src/util/cli.hpp"
#include "src/util/stats.hpp"
#include "src/util/trace.hpp"

using namespace vcgt;

namespace {

// --- run shape ----------------------------------------------------------------
constexpr int kSetupReps = 51;          ///< constructions per run; setup_s is their median
constexpr int kServeSetupReps = 15;     ///< fresh servers per run (a multiple of the hot specs)
constexpr int kCheckSteps = 6;          ///< warm-up steps whose monitors are checked
constexpr int kMinTimedSteps = 100;     ///< so p90 has >= 10 samples beyond it
constexpr int kTimedChunks = 8;         ///< run() calls per timed segment
constexpr std::size_t kTraceCapacity = std::size_t{1} << 19;  ///< events per thread
constexpr double kTraceFill = 0.4;      ///< traced segments aim below this ring fill
constexpr int kGeneratorTrack = 1000;   ///< trace track of the load generator thread

// serve_mix load. The traffic is synthetic: no measured mix exists for this
// service, so the rate and the cold share are assumptions (see README.md).
// The rate is about a twelfth of the capacity, so queueing stays a small
// part of a job's latency even when the shared machine slows down; at 60/s
// queueing amplified its speed phases into the latency median and tail.
constexpr double kServeRate = 30.0;       ///< open-loop arrivals per second
constexpr int kServeColdEvery = 50;       ///< every 50th arrival (2%) has a never-seen setup
constexpr double kServeSloMs = 100.0;     ///< job latency limit
constexpr int kServeHotSpecs = 3;
constexpr double kServeTracedSeconds = 4.0;  ///< traced window; its events fit the ring buffers
constexpr double kServeTailWindowS = 5.0;    ///< job_tail_ms is the median of per-window p90s

std::int64_t now_ns() { return trace::now_ns(); }

double pct(std::vector<double> v, double q) { return v.empty() ? 0.0 : util::quantile(std::move(v), q); }
double median(std::vector<double> v) { return pct(std::move(v), 0.5); }
double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Operating point picked by the seed: the inflow axial velocity. The seed
/// is the only input the workloads take; the system sees only this value.
double inflow_velocity(std::uint64_t seed) { return 74.0 + 4.0 * static_cast<double>(seed % 4); }

// --- JSON output ------------------------------------------------------------------
std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

using Metrics = std::vector<std::pair<std::string, double>>;

std::string quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out + "\"";
}

std::string json_object(const Metrics& m) {
  std::string out = "{";
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (i) out += ", ";
    out += quote(m[i].first) + ": " + num(m[i].second);
  }
  return out + "}";
}

// --- trace analysis -------------------------------------------------------------
/// Per-span-name totals over the events of a set of tracks inside a window.
struct SpanTotals {
  std::map<std::string, double> seconds;
  std::map<std::string, std::uint64_t> count;
  double bytes = 0.0;  ///< halo:pack_send "bytes" args
  double msgs = 0.0;   ///< halo:pack_send "msgs" args

  [[nodiscard]] double sec(const std::string& n) const {
    const auto it = seconds.find(n);
    return it == seconds.end() ? 0.0 : it->second;
  }
  [[nodiscard]] double cnt(const std::string& n) const {
    const auto it = count.find(n);
    return it == count.end() ? 0.0 : static_cast<double>(it->second);
  }
  /// Seconds and count over span names ending in `suffix`.
  [[nodiscard]] std::pair<double, double> by_suffix(const std::string& suffix) const {
    double s = 0.0, c = 0.0;
    for (const auto& [n, v] : seconds) {
      if (n.rfind("chain:", 0) != 0 && ends_with(n, suffix)) {
        s += v;
        c += static_cast<double>(count.at(n));
      }
    }
    return {s, c};
  }
  /// Seconds and count over span names containing `part` (chain spans excluded:
  /// their members are recorded under their own names).
  [[nodiscard]] std::pair<double, double> containing(const std::string& part,
                                                     const std::string& and_part = "") const {
    double s = 0.0, c = 0.0;
    for (const auto& [n, v] : seconds) {
      if (n.rfind("chain:", 0) == 0 || n.find(part) == std::string::npos) continue;
      if (!and_part.empty() && n.find(and_part) == std::string::npos) continue;
      s += v;
      c += static_cast<double>(count.at(n));
    }
    return {s, c};
  }
};

SpanTotals totals(const std::vector<trace::Event>& events, const std::vector<int>& tracks,
                  std::int64_t t0, std::int64_t t1) {
  SpanTotals t;
  for (const auto& e : events) {
    if (e.phase != 'X' || e.ts_ns < t0 || e.ts_ns > t1) continue;
    if (std::find(tracks.begin(), tracks.end(), e.track) == tracks.end()) continue;
    t.seconds[e.name] += static_cast<double>(e.dur_ns) * 1e-9;
    t.count[e.name] += 1;
    if (e.name == "halo:pack_send") {
      for (int a = 0; a < e.nargs; ++a) {
        const std::string key = e.args[a].key;
        if (key == "bytes") t.bytes += e.args[a].value;
        if (key == "msgs") t.msgs += e.args[a].value;
      }
    }
  }
  return t;
}

/// Ledger closure: over the root spans (`root` name) of each track, the share
/// of root time that no other span covers. Step containers (`hs:step`)
/// carry no layer of their own and do not count as coverage. Spans are
/// clamped to the root interval (chain members report thread-summed busy
/// time from the chain's start, which may exceed the chain's wall span).
double unattributed_frac(const std::vector<trace::Event>& events, const std::vector<int>& tracks,
                         const std::string& root, std::int64_t t0, std::int64_t t1) {
  double root_ns = 0.0, covered_ns = 0.0;
  for (const int track : tracks) {
    std::vector<std::pair<std::int64_t, std::int64_t>> roots, spans;
    for (const auto& e : events) {
      if (e.phase != 'X' || e.track != track || e.ts_ns < t0 || e.ts_ns > t1) continue;
      if (e.name == root) {
        roots.emplace_back(e.ts_ns, e.ts_ns + e.dur_ns);
      } else if (e.name != "hs:step") {
        spans.emplace_back(e.ts_ns, e.ts_ns + e.dur_ns);
      }
    }
    std::sort(spans.begin(), spans.end());
    for (const auto& [rb, re] : roots) {
      root_ns += static_cast<double>(re - rb);
      std::int64_t cursor = rb;
      for (const auto& [b, e] : spans) {
        if (b >= re) break;
        const std::int64_t lo = std::max(b, cursor), hi = std::min(e, re);
        if (hi > lo) {
          covered_ns += static_cast<double>(hi - lo);
          cursor = hi;
        }
      }
    }
  }
  return root_ns > 0.0 ? 1.0 - covered_ns / root_ns : 0.0;
}

/// Wall seconds the given tracks spent inside op2 loop executions (solo
/// par_loop spans, which carry a "set_size" arg, and chain spans), nested
/// spans counted once. Context::total_stats() cannot give this: a chain's
/// seconds include its unfused members, which are metered again as solo
/// loops.
double loop_wall_s(const std::vector<trace::Event>& events, const std::vector<int>& tracks,
                   std::int64_t t0, std::int64_t t1) {
  double ns = 0.0;
  for (const int track : tracks) {
    std::vector<std::pair<std::int64_t, std::int64_t>> spans;
    for (const auto& e : events) {
      if (e.phase != 'X' || e.track != track || e.ts_ns < t0 || e.ts_ns > t1) continue;
      bool loop = e.name.rfind("chain:", 0) == 0;
      for (int a = 0; a < e.nargs; ++a) loop = loop || std::string(e.args[a].key) == "set_size";
      if (loop) spans.emplace_back(e.ts_ns, e.ts_ns + e.dur_ns);
    }
    std::sort(spans.begin(), spans.end());
    std::int64_t cursor = std::numeric_limits<std::int64_t>::min();
    for (const auto& [b, e] : spans) {
      const std::int64_t lo = std::max(b, cursor);
      if (e > lo) {
        ns += static_cast<double>(e - lo);
        cursor = e;
      }
    }
  }
  return ns * 1e-9;
}

/// Largest number of events any track recorded.
std::size_t max_events_per_track(const std::vector<trace::Event>& events) {
  std::map<int, std::size_t> n;
  std::size_t best = 0;
  for (const auto& e : events) best = std::max(best, ++n[e.track]);
  return best;
}

/// Trace-derived per-layer metrics shared by every workload. `steps` is the
/// number of physical steps the traced window covers (per HS rank), `faces`
/// the interior faces one HS rank iterates.
void trace_layers(const SpanTotals& t, double steps, double nhs, double faces, Metrics* out) {
  const double per = steps * nhs;
  auto ns_per_face = [&](const char* loop) {
    const auto [s, c] = t.by_suffix(loop);
    return c > 0 && faces > 0 ? s * 1e9 / (c * faces) : 0.0;
  };
  out->push_back({"op2.flux_ns_per_face", ns_per_face(":flux_face")});
  out->push_back({"op2.grad_ns_per_face", ns_per_face(":grad_face")});
  out->push_back({"op2.limiter_ns_per_face", ns_per_face(":limiter_face")});
  out->push_back({"op2.halo_pack_s_per_step", t.sec("halo:pack_send") / per});
  out->push_back({"op2.halo_wait_s_per_step", t.sec("halo:wait") / per});
  out->push_back({"op2.halo_msgs_per_step", t.msgs / per});
  out->push_back({"op2.halo_bytes_per_step", t.bytes / per});
  out->push_back({"minimpi.recv_wait_s_per_step", t.sec("mpi:recv_wait") / per});
  out->push_back({"minimpi.barrier_wait_s_per_step", t.sec("mpi:barrier_wait") / per});
  auto span_mean = [&](const char* n) { return t.cnt(n) > 0 ? t.sec(n) / t.cnt(n) : 0.0; };
  out->push_back({"hydra.inner_iter_s", span_mean("hydra:inner_iter")});
  out->push_back({"hydra.rk_stage_s", span_mean("hydra:rk_stage")});
  out->push_back({"hydra.implicit_iter_s", span_mean("hydra:implicit_iter")});
  out->push_back({"krylov.loop_s_per_step", t.containing(":ksolve:").first / per});
  out->push_back({"krylov.spmv_per_step", t.containing(":ksolve:", "spmv").second / per});
}

// --- sim workloads ---------------------------------------------------------------
struct SimWorkload {
  std::string name;
  std::vector<int> hs;  ///< HS ranks per row
  bool single_row;      ///< one row (R1) instead of IGV+R1
  rig::MeshResolution res;
  int nthreads;
  bool implicit;
  int inner;
  double slo_s;  ///< per-step latency limit of the job_slo_ok_frac metric
};

const std::vector<SimWorkload>& sim_workloads() {
  static const std::vector<SimWorkload> w = {
      {"rig2_explicit", {1, 1}, false, {8, 6, 24}, 1, false, 3, 0.05},
      {"row_halo4_implicit", {4}, true, {10, 6, 60}, 1, true, 3, 0.025},
  };
  return w;
}

jm76::CoupledConfig sim_config(const SimWorkload& w, std::uint64_t seed) {
  jm76::CoupledConfig cfg;
  const rig::RigSpec two = rig::rig250_spec(2);
  cfg.rig = two;
  if (w.single_row) cfg.rig.rows = {two.rows[1]};
  cfg.res = w.res;
  cfg.flow.second_order = true;
  cfg.flow.viscous = true;
  cfg.flow.inner_iters = w.inner;
  cfg.flow.implicit_dual_time = w.implicit;
  cfg.flow.u_axial_in = inflow_velocity(seed);
  cfg.hs_ranks = w.hs;
  cfg.cus_per_interface = 1;
  cfg.pipelined = true;
  cfg.op2cfg.nthreads = w.nthreads;
  return cfg;
}

/// Per-rank figures gathered to world rank 0 after the run.
enum Slot {
  kIsCu, kRow, kOwnedCells, kElements, kCouplerWait, kSearchSec, kCuIdle,
  kCandidates, kMeanP, kMdotIn, kMdotOut, kRms, kNumSlots
};

struct SimResult {
  std::vector<double> setup_s, step_s, traced_step_s;
  std::vector<std::vector<double>> ranks;
  double timed_wall_s = 0.0;
  double pool_allocs = 0.0;
  int check_steps = 0, timed_steps = 0, traced_steps = 0;
  std::vector<trace::Event> events;
  std::int64_t trace_t0 = 0, trace_t1 = 0;
  std::uint64_t dropped = 0;
};

SimResult run_sim(const jm76::CoupledConfig& cfg, double seconds,
                  bool traced, bool quick) {
  SimResult res;
  const int nranks = cfg.layout().world_size();
  minimpi::World::run(nranks, [&](minimpi::Comm& world) {
    const bool root = world.rank() == 0;  // HS rank 0 of row 0 (Layout order)

    // Setup: repeated constructions; setup_s is their median.
    std::unique_ptr<jm76::CoupledRig> rig;
    const int reps = quick ? 2 : kSetupReps;
    for (int k = 0; k < reps; ++k) {
      rig.reset();
      world.barrier();
      const std::int64_t t0 = now_ns();
      rig = std::make_unique<jm76::CoupledRig>(world, cfg);
      world.barrier();
      if (root) res.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    }
    hydra::RowSolver* solver = rig->solver();

    std::vector<double> mine(kNumSlots, 0.0);
    const auto& role = rig->role();
    mine[kIsCu] = role.kind == jm76::Role::Kind::CouplerUnit ? 1.0 : 0.0;
    mine[kRow] = role.kind == jm76::Role::Kind::CouplerUnit ? role.iface : role.row;
    mine[kOwnedCells] = solver ? static_cast<double>(solver->cells().n_owned()) : 0.0;

    std::vector<std::int64_t> stamps;
    std::int64_t prev = 0;
    bool span_steps = false;
    bool checking = true;
    const auto on_step = [&](int step) {
      const std::int64_t t = now_ns();
      if (root) stamps.push_back(t);
      if (span_steps) trace::complete("bench:step", prev, t - prev);
      prev = t;
      if (checking && step == kCheckSteps - 1 && solver) {
        mine[kMeanP] = solver->mean_pressure();
        mine[kMdotIn] = solver->mass_flow(rig::BoundaryGroup::Inlet);
        mine[kMdotOut] = solver->mass_flow(rig::BoundaryGroup::Outlet);
        mine[kRms] = solver->residual_rms();
      }
    };
    // One timed run() call of n steps; returns per-step seconds (root).
    const auto segment = [&](int n) {
      world.barrier();
      stamps.clear();
      prev = now_ns();
      const std::int64_t t0 = prev;
      rig->run(n, -1, on_step);
      std::vector<double> dt;
      std::int64_t last = t0;
      for (const std::int64_t s : stamps) {
        dt.push_back(static_cast<double>(s - last) * 1e-9);
        last = s;
      }
      return dt;
    };
    const auto start_trace = [&] {
      world.barrier();
      if (root) trace::enable(kTraceCapacity);
      world.barrier();
    };
    const auto stop_trace = [&] {
      world.barrier();
      if (root) trace::disable();
    };

    // Warm-up + output check: plans build lazily in the first steps.
    if (traced) start_trace();
    const std::vector<double> warm = segment(kCheckSteps);
    if (traced) stop_trace();
    checking = false;
    if (root) res.check_steps = kCheckSteps;
    const double budget = traced ? 0.5 * seconds : seconds;
    const int min_steps = quick ? 3 : traced ? 20 : kMinTimedSteps;
    double chunk = 0.0, n_traced = 0.0;
    if (root) {
      // run() calls of about an eighth of the budget each, so the timed
      // segment ends near the budget even when the machine's speed drifts.
      const double est = mean(std::vector<double>(warm.begin() + 1, warm.end()));
      const double n_est = std::max<double>(min_steps, std::ceil(budget / std::max(est, 1e-6)));
      chunk = std::ceil(n_est / kTimedChunks);
      if (traced) {
        // Size the traced segment so no thread's ring buffer overflows.
        const double per_step = static_cast<double>(max_events_per_track(trace::snapshot())) /
                                static_cast<double>(kCheckSteps);
        n_traced = std::clamp(std::floor(kTraceFill * kTraceCapacity / std::max(per_step, 1.0)),
                              3.0, n_est);
      }
    }
    const int n_chunk = static_cast<int>(world.allreduce_max(chunk));
    const int nt = static_cast<int>(world.allreduce_max(n_traced));

    // Untraced timed segment: end-to-end samples + meter snapshots. The
    // timing fields of stats() cover one run() call, so they are summed.
    const op2::Context::LoopStatsView before =
        rig->context() ? rig->context()->total_stats() : op2::Context::LoopStatsView{};
    const std::uint64_t cand0 = rig->stats().candidates;
    const std::uint64_t allocs0 = world.pool_stats().slab_allocs;
    const std::int64_t wall0 = now_ns();
    std::vector<double> timed;
    for (bool more = true; more;) {
      const std::vector<double> dt = segment(n_chunk);
      timed.insert(timed.end(), dt.begin(), dt.end());
      const auto& st = rig->stats();
      mine[kCouplerWait] += st.coupler_wait;
      mine[kSearchSec] += st.search_seconds;
      mine[kCuIdle] += st.cu_idle_seconds;
      const double elapsed = static_cast<double>(now_ns() - wall0) * 1e-9;
      const bool go = root && (static_cast<int>(timed.size()) < min_steps || elapsed < budget);
      more = world.allreduce_max(go ? 1.0 : 0.0) > 0.0;
    }
    const double wall = static_cast<double>(now_ns() - wall0) * 1e-9;
    const std::uint64_t allocs1 = world.pool_stats().slab_allocs;
    if (rig->context()) {
      mine[kElements] =
          static_cast<double>(rig->context()->total_stats().elements - before.elements);
    }
    mine[kCandidates] = static_cast<double>(rig->stats().candidates - cand0);
    const int n = static_cast<int>(world.allreduce_max(static_cast<double>(timed.size())));
    if (root) {
      res.step_s = timed;
      res.timed_steps = n;
      res.timed_wall_s = wall;
      res.pool_allocs = static_cast<double>(allocs1 - allocs0);
    }

    // Traced segment: per-layer spans, with the benchmark's bench:step roots.
    if (traced) {
      start_trace();
      if (root) res.trace_t0 = now_ns();
      span_steps = true;
      const std::vector<double> tr = segment(nt);
      span_steps = false;
      if (root) res.trace_t1 = now_ns();
      stop_trace();
      if (root) {
        res.traced_step_s = tr;
        res.traced_steps = nt;
        res.events = trace::snapshot();
        res.dropped = trace::dropped();
      }
    }

    const auto all = world.gatherv(std::span<const double>(mine), 0);
    if (root) {
      for (std::size_t r = 0; r * kNumSlots < all.size(); ++r) {
        res.ranks.emplace_back(all.begin() + static_cast<std::ptrdiff_t>(r * kNumSlots),
                               all.begin() + static_cast<std::ptrdiff_t>((r + 1) * kNumSlots));
      }
    }
  });
  return res;
}

// --- serve workload --------------------------------------------------------------
serve::SessionSpec serve_spec(int nsteps, double u_in) {
  serve::SessionSpec spec;
  spec.nrows = 2;
  spec.tier = "tiny";
  spec.hs_ranks = {1, 1};
  spec.cus_per_interface = 1;
  spec.nsteps = nsteps;
  spec.flow.inner_iters = 4;
  spec.flow.u_axial_in = u_in;
  return spec;
}

bool same_frame(const serve::StepFrame& a, const serve::StepFrame& b) {
  return a.step == b.step && a.time == b.time && a.rms == b.rms && a.mdot_in == b.mdot_in &&
         a.mdot_out == b.mdot_out && a.mean_p == b.mean_p && a.power == b.power;
}

struct Job {
  double at_s = 0.0;  ///< scheduled arrival, seconds into the window
  std::int64_t sched_ns = 0;
  int hot = -1;  ///< hot spec index, -1 = cold tail
  serve::Server::Ticket ticket;
  serve::Server::JobOutcome outcome;  ///< frames dropped once checked
  std::size_t nframes = 0;
  double submit_s = 0.0, lag_s = 0.0;
  bool failed = false;
};

/// One open-loop window: seeded Poisson arrivals over `seconds`, each job
/// timed from its scheduled arrival. Jobs are claimed after the window
/// closes; completion stamps come from the server, so claim order does
/// not bias latency.
std::vector<Job> serve_window(serve::Server& server, std::mt19937_64& rng, double seconds,
                              double u_in, int* cold_counter, std::size_t* outstanding_max,
                              const std::vector<serve::StepFrame>& refs) {
  std::exponential_distribution<double> gap(kServeRate);
  std::uniform_int_distribution<int> pick(0, kServeHotSpecs - 1);
  std::vector<Job> jobs;
  double t = gap(rng);
  while (t < seconds) {
    Job j;
    j.at_s = t;
    j.sched_ns = static_cast<std::int64_t>(t * 1e9);
    j.hot = (jobs.size() + 1) % kServeColdEvery == 0 ? -1 : pick(rng);
    jobs.push_back(j);
    t += gap(rng);
  }
  const std::int64_t origin = now_ns();
  for (auto& j : jobs) {
    j.sched_ns += origin;
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(j.sched_ns)));
    serve::SessionSpec spec = serve_spec(j.hot < 0 ? 2 : 2 + j.hot, u_in);
    // A cold job's rpm is one the run has never used: a new setup_hash, so
    // it pays mesh, partition and plans.
    if (j.hot < 0) spec.rpm += 1.0 + (*cold_counter)++;
    const std::int64_t s0 = now_ns();
    j.lag_s = static_cast<double>(s0 - j.sched_ns) * 1e-9;
    {
      trace::Span span("bench:submit");
      j.ticket = server.submit(spec);
    }
    j.submit_s = static_cast<double>(now_ns() - s0) * 1e-9;
    *outstanding_max = std::max(*outstanding_max, server.outstanding());
  }
  for (auto& j : jobs) {
    if (!j.ticket.accepted) {
      j.failed = true;
      continue;
    }
    {
      trace::Span span("bench:wait");
      j.outcome = server.wait(j.ticket.job_id);
    }
    const int nsteps = j.hot < 0 ? 2 : 2 + j.hot;
    j.nframes = j.outcome.frames.size();
    j.failed = !j.outcome.ok || static_cast<int>(j.nframes) != nsteps ||
               (j.hot >= 0 && !same_frame(j.outcome.frames.back(),
                                           refs[static_cast<std::size_t>(j.hot)]));
    j.outcome.frames = {};
  }
  return jobs;
}

double job_ms(const Job& j) { return static_cast<double>(j.outcome.done_ns - j.sched_ns) * 1e-6; }

// --- main ------------------------------------------------------------------------
struct Output {
  Metrics e2e, layer, info;
  std::vector<std::vector<double>> monitors;  ///< row, mean_p, mdot_in, mdot_out, rms
  long attempted = 0, failed = 0;
  std::vector<std::string> errors;
};

void print(const std::string& workload, const Output& o) {
  std::ostringstream os;
  os << "{\"workload\": \"" << workload << "\", \"attempted\": " << o.attempted
     << ", \"failed\": " << o.failed << ", \"e2e\": " << json_object(o.e2e)
     << ", \"layer\": " << json_object(o.layer) << ", \"info\": " << json_object(o.info)
     << ", \"monitors\": [";
  for (std::size_t i = 0; i < o.monitors.size(); ++i) {
    if (i) os << ", ";
    os << "{\"row\": " << num(o.monitors[i][0]) << ", \"mean_p\": " << num(o.monitors[i][1])
       << ", \"mdot_in\": " << num(o.monitors[i][2]) << ", \"mdot_out\": "
       << num(o.monitors[i][3]) << ", \"rms\": " << num(o.monitors[i][4]) << "}";
  }
  os << "], \"errors\": [";
  for (std::size_t i = 0; i < o.errors.size(); ++i) {
    os << (i ? ", " : "") << quote(o.errors[i]);
  }
  os << "]}";
  std::cout << os.str() << std::endl;
}

/// Mesh generation time (median of reps) of the slowest row, and the
/// interior faces of row 0 — the benchmark's own rig::generate_row_mesh calls.
std::pair<double, double> mesh_gen(const rig::RigSpec& spec, const rig::MeshResolution& res,
                                   int reps) {
  std::vector<double> t;
  double faces = 0.0;
  for (int k = 0; k < reps; ++k) {
    double slowest = 0.0;
    for (std::size_t r = 0; r < spec.rows.size(); ++r) {
      trace::Span span("bench:mesh_gen");
      const std::int64_t t0 = now_ns();
      const rig::AnnulusMesh mesh = rig::generate_row_mesh(spec.rows[r], res);
      slowest = std::max(slowest, static_cast<double>(now_ns() - t0) * 1e-9);
      if (r == 0) faces = static_cast<double>(mesh.face2cell.size() / 2);
    }
    t.push_back(slowest);
  }
  return {median(t), faces};
}

Output sim_workload(const SimWorkload& w, std::uint64_t seed, double seconds, bool traced,
                    bool quick) {
  const jm76::CoupledConfig cfg = sim_config(w, seed);
  const auto layout = cfg.layout();
  Output o;
  const SimResult r = run_sim(cfg, seconds, traced, quick);

  const int nhs = layout.hs_total();
  const int ncu = layout.world_size() - nhs;
  o.attempted = r.check_steps + r.timed_steps + r.traced_steps;
  for (const auto& rank : r.ranks) {
    if (rank[kIsCu] != 0.0) continue;
    // One monitor set per row, from the row's first HS rank.
    const int row = static_cast<int>(rank[kRow]);
    if (o.monitors.size() <= static_cast<std::size_t>(row)) {
      o.monitors.push_back({rank[kRow], rank[kMeanP], rank[kMdotIn], rank[kMdotOut], rank[kRms]});
    }
  }

  const double step = median(r.step_s), p90 = pct(r.step_s, 0.9);
  const double setup = median(r.setup_s);
  std::size_t within = 0;
  for (const double s : r.step_s) within += s <= w.slo_s ? 1 : 0;
  // A sim "job" is one step, requested by a caller that waits for it, so
  // job_ms and job_tail_ms repeat step_s and step_s_p90 in milliseconds.
  o.e2e = {{"step_s", step},
           {"step_s_p90", p90},
           {"setup_s", setup},
           {"peak_rss_mb", peak_rss_mb()},
           {"job_ms", step * 1e3},
           {"job_tail_ms", p90 * 1e3},
           {"job_slo_ok_frac", static_cast<double>(within) / static_cast<double>(r.step_s.size())}};

  const double cells_per_rank = r.ranks.empty() ? 0.0 : r.ranks[0][kOwnedCells];
  o.info = {{"nproc", static_cast<double>(nproc())},
            {"threads", static_cast<double>(nhs * w.nthreads + ncu)},
            {"ranks", static_cast<double>(layout.world_size())},
            {"cells_per_rank", cells_per_rank},
            {"samples", static_cast<double>(r.step_s.size())},
            {"step_s_p10", pct(r.step_s, 0.1)},
            {"step_s_mean", mean(r.step_s)},
            {"timed_s", r.timed_wall_s},
            {"traced_steps", static_cast<double>(r.traced_steps)},
            {"inflow_u", cfg.flow.u_axial_in}};

  if (traced) {
    const double n = r.timed_steps;
    double elements = 0.0, wait = 0.0, search = 0.0, idle = 0.0, cand = 0.0;
    for (const auto& rank : r.ranks) {
      elements += rank[kElements];
      if (rank[kIsCu] != 0.0) {
        search += rank[kSearchSec];
        idle += rank[kCuIdle];
        cand += rank[kCandidates];
      } else {
        wait += rank[kCouplerWait];
      }
    }
    std::vector<int> hs_tracks;
    for (int k = 0; k < nhs; ++k) hs_tracks.push_back(k);
    const auto [mesh_s, faces] = mesh_gen(cfg.rig, cfg.res, quick ? 1 : 3);
    const SpanTotals t = totals(r.events, hs_tracks, r.trace_t0, r.trace_t1);

    const double loop_s =
        loop_wall_s(r.events, hs_tracks, r.trace_t0, r.trace_t1) / (r.traced_steps * nhs);
    o.layer.push_back({"op2.loop_s_per_step", loop_s});
    o.layer.push_back({"op2.elements_per_s", loop_s > 0 ? elements / (n * nhs) / loop_s : 0.0});
    trace_layers(t, r.traced_steps, nhs, faces / w.hs[0], &o.layer);
    o.layer.push_back({"minimpi.pool_allocs_steady", r.pool_allocs});
    o.layer.push_back({"jm76.search_s_per_step", search / n});
    o.layer.push_back({"jm76.candidates_per_step", cand / n});
    o.layer.push_back({"jm76.cu_idle_frac", ncu > 0 ? idle / (ncu * r.timed_wall_s) : 0.0});
    o.layer.push_back({"jm76.hs_coupler_wait_s_per_step", wait / (n * nhs)});
    o.layer.push_back({"rig.mesh_gen_s", mesh_s});
    o.layer.push_back({"setup_other_s", setup - mesh_s});
    for (const char* m : {"serve.submit_us_p50", "serve.setup_ms_warm", "serve.setup_ms_cold",
                          "serve.run_ms_p50", "serve.warm_hit_ratio", "serve.plan_cache_hit_ratio",
                          "serve.outstanding_max", "serve.gen_lag_ms_p99"}) {
      o.layer.push_back({m, 0.0});
    }
    o.layer.push_back({"ledger.unattributed_frac",
                       unattributed_frac(r.events, hs_tracks, "bench:step", r.trace_t0, r.trace_t1)});
    o.layer.push_back({"trace.overhead_frac", median(r.traced_step_s) / step - 1.0});
    o.layer.push_back({"trace.dropped", static_cast<double>(r.dropped)});
    if (r.dropped != 0) {
      ++o.failed;
      o.errors.push_back("trace ring buffer dropped events");
    }
  }
  return o;
}

Output serve_workload(std::uint64_t seed, double seconds, bool traced, bool quick) {
  trace::set_track(kGeneratorTrack);
  const double u_in = inflow_velocity(seed);
  Output o;
  serve::ServerOptions opts;
  opts.queue_capacity = 64;
  opts.max_total_ranks = 3;

  // Setup: fresh server, then each hot spec once. The hot specs share one
  // setup_hash (they differ only in nsteps), so only the first job on a
  // fresh server runs cold. Fresh server k starts with hot spec k % 3, so
  // every hot spec gets a cold result; those are the references every other
  // setup job and every later hot job must reproduce.
  std::unique_ptr<serve::Server> server;
  std::vector<double> setup_s;
  std::vector<serve::StepFrame> refs(kServeHotSpecs);
  std::vector<bool> have_ref(kServeHotSpecs, false);
  std::vector<std::pair<int, serve::StepFrame>> others;
  for (int k = 0; k < (quick ? kServeHotSpecs : kServeSetupReps); ++k) {
    server.reset();
    const std::int64_t t0 = now_ns();
    server = std::make_unique<serve::Server>(opts);
    for (int i = 0; i < kServeHotSpecs; ++i) {
      const int h = (k + i) % kServeHotSpecs;
      const auto ticket = server->submit(serve_spec(2 + h, u_in));
      const auto out = ticket.accepted ? server->wait(ticket.job_id) : serve::Server::JobOutcome{};
      ++o.attempted;
      if (!out.ok || out.frames.empty() || (i == 0 && out.warm)) {
        ++o.failed;
        o.errors.push_back(out.ok && !out.frames.empty() ? "first job on a fresh server ran warm"
                                                         : "setup job failed: " + out.error);
        continue;
      }
      if (i == 0 && !have_ref[static_cast<std::size_t>(h)]) {
        refs[static_cast<std::size_t>(h)] = out.frames.back();
        have_ref[static_cast<std::size_t>(h)] = true;
      } else {
        others.emplace_back(h, out.frames.back());
      }
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  if (std::count(have_ref.begin(), have_ref.end(), true) != kServeHotSpecs) return o;
  for (const auto& [h, frame] : others) {
    if (!same_frame(refs[static_cast<std::size_t>(h)], frame)) {
      ++o.failed;
      o.errors.push_back("hot spec " + std::to_string(h) + " differs from its cold result");
    }
  }

  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 1);
  int cold_counter = 0;
  std::size_t outstanding_max = 0;
  const auto cache0 = server->plan_cache().stats();
  const double window = traced ? 0.5 * seconds : seconds;
  const std::vector<Job> jobs =
      serve_window(*server, rng, window, u_in, &cold_counter, &outstanding_max, refs);
  const auto cache1 = server->plan_cache().stats();

  std::vector<double> hot_lat, cold_lat, steps, submit_us, lag_ms, warm_ms, cold_ms, run_ms;
  const std::size_t nwin = std::max<std::size_t>(1, static_cast<std::size_t>(window / kServeTailWindowS));
  std::vector<std::vector<double>> hot_lat_win(nwin);
  std::size_t ok_in_slo = 0, warm = 0, done = 0;
  for (const auto& j : jobs) {
    ++o.attempted;
    submit_us.push_back(j.submit_s * 1e6);
    lag_ms.push_back(j.lag_s * 1e3);
    if (j.failed) {
      ++o.failed;
      if (o.errors.size() < 5) {
        o.errors.push_back(!j.ticket.accepted ? "job refused: " + j.ticket.reason
                           : !j.outcome.ok    ? "job failed: " + j.outcome.error
                                              : "job output check failed");
      }
      continue;
    }
    ++done;
    const double ms = job_ms(j);
    (j.hot >= 0 ? hot_lat : cold_lat).push_back(ms);
    if (j.hot >= 0) {
      hot_lat_win[std::min(nwin - 1, static_cast<std::size_t>(j.at_s / window * nwin))].push_back(ms);
    }
    if (ms <= kServeSloMs) ++ok_in_slo;
    steps.push_back(j.outcome.run_seconds / static_cast<double>(j.nframes));
    run_ms.push_back(j.outcome.run_seconds * 1e3);
    (j.outcome.warm ? warm_ms : cold_ms).push_back(j.outcome.setup_seconds * 1e3);
    warm += j.outcome.warm ? 1 : 0;
  }
  // Job latencies are taken over the hot jobs only, so the assumed cold
  // share sets how often hot jobs meet a cold one, not which population a
  // percentile falls in. Cold jobs count in job_slo_ok_frac. The tail is the
  // median of the p90s of consecutive windows, so a slow phase of the
  // machine that covers less than half the run does not set it.
  std::vector<double> win_p90;
  for (const auto& w : hot_lat_win) {
    if (!w.empty()) win_p90.push_back(pct(w, 0.9));
  }
  const double step = median(steps);
  o.e2e = {{"step_s", step},
           {"step_s_p90", pct(steps, 0.9)},
           {"setup_s", median(setup_s)},
           {"peak_rss_mb", peak_rss_mb()},
           {"job_ms", median(hot_lat)},
           {"job_tail_ms", median(win_p90)},
           {"job_slo_ok_frac",
            jobs.empty() ? 0.0 : static_cast<double>(ok_in_slo) / static_cast<double>(jobs.size())}};
  const rig::MeshResolution tiny = rig::resolution_tier("tiny");
  o.info = {{"nproc", static_cast<double>(nproc())},
            {"threads", static_cast<double>(opts.max_total_ranks + 1)},
            {"ranks", static_cast<double>(opts.max_total_ranks)},
            {"cells_per_rank", static_cast<double>(tiny.nx * tiny.nr * tiny.ntheta)},
            {"samples", static_cast<double>(jobs.size())},
            {"hot_jobs", static_cast<double>(hot_lat.size())},
            {"hot_job_p90_ms", pct(hot_lat, 0.9)},
            {"hot_job_p99_ms", pct(hot_lat, 0.99)},
            {"cold_jobs", static_cast<double>(cold_lat.size())},
            {"cold_job_p50_ms", median(cold_lat)},
            {"timed_s", window},
            {"rate_per_s", kServeRate},
            {"slo_ms", kServeSloMs},
            {"inflow_u", u_in}};

  if (traced) {
    // Traced window, bounded so the ring buffers cannot overflow at this rate.
    const double tw = std::min(kServeTracedSeconds, 0.5 * seconds);
    trace::enable(kTraceCapacity);
    const std::int64_t t0 = now_ns();
    std::size_t unused_max = 0;
    const std::vector<Job> tjobs =
        serve_window(*server, rng, tw, u_in, &cold_counter, &unused_max, refs);
    const std::int64_t t1 = now_ns();
    trace::disable();
    const auto events = trace::snapshot();
    double nsteps = 0.0;
    std::vector<double> tsteps;
    for (const auto& j : tjobs) {
      ++o.attempted;
      if (j.failed) {
        ++o.failed;
        continue;
      }
      nsteps += static_cast<double>(j.nframes);
      tsteps.push_back(j.outcome.run_seconds / static_cast<double>(j.nframes));
    }
    const std::vector<int> hs_tracks = {0, 1}, cu_tracks = {2};
    const SpanTotals t = totals(events, hs_tracks, t0, t1);
    const SpanTotals cu = totals(events, cu_tracks, t0, t1);
    const auto [mesh_s, faces] = mesh_gen(rig::rig250_spec(2), tiny, 3);
    const double hits = static_cast<double>(cache1.hits - cache0.hits);
    const double lookups = hits + static_cast<double>(cache1.misses - cache0.misses);

    o.layer.push_back({"op2.loop_s_per_step",
                       nsteps > 0 ? loop_wall_s(events, hs_tracks, t0, t1) / (2.0 * nsteps) : 0.0});
    // Element counts live in the worker sessions' meters: not observable.
    o.layer.push_back({"op2.elements_per_s", 0.0});
    trace_layers(t, nsteps, 2.0, faces, &o.layer);
    o.layer.push_back({"minimpi.pool_allocs_steady", 0.0});
    o.layer.push_back({"jm76.search_s_per_step", nsteps > 0 ? cu.sec("cu:search_interp") / nsteps : 0.0});
    o.layer.push_back({"jm76.candidates_per_step", 0.0});
    o.layer.push_back({"jm76.cu_idle_frac",
                       cu.sec("cu:step") > 0 ? cu.sec("cu:recv_donors") / cu.sec("cu:step") : 0.0});
    o.layer.push_back({"jm76.hs_coupler_wait_s_per_step",
                       nsteps > 0 ? t.sec("coupler:recv_ghosts") / (2.0 * nsteps) : 0.0});
    o.layer.push_back({"rig.mesh_gen_s", mesh_s});
    o.layer.push_back({"setup_other_s", median(setup_s) - mesh_s});
    o.layer.push_back({"serve.submit_us_p50", median(submit_us)});
    o.layer.push_back({"serve.setup_ms_warm", median(warm_ms)});
    o.layer.push_back({"serve.setup_ms_cold", median(cold_ms)});
    o.layer.push_back({"serve.run_ms_p50", median(run_ms)});
    o.layer.push_back({"serve.warm_hit_ratio", done ? static_cast<double>(warm) / done : 0.0});
    o.layer.push_back({"serve.plan_cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0});
    o.layer.push_back({"serve.outstanding_max", static_cast<double>(outstanding_max)});
    o.layer.push_back({"serve.gen_lag_ms_p99", pct(lag_ms, 0.99)});
    o.layer.push_back({"ledger.unattributed_frac", unattributed_frac(events, hs_tracks, "hs:step", t0, t1)});
    o.layer.push_back({"trace.overhead_frac", median(tsteps) / step - 1.0});
    o.layer.push_back({"trace.dropped", static_cast<double>(trace::dropped())});
    if (trace::dropped() != 0) {
      ++o.failed;
      o.errors.push_back("trace ring buffer dropped events");
    }
  }
  server->shutdown();
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const std::string workload = cli.get("workload", "");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const double seconds = cli.get_double("seconds", 0.0);
  const bool traced = cli.get_int("trace", 0) != 0;
  const bool quick = cli.has("quick");

  int threads = 0;
  const SimWorkload* sim = nullptr;
  for (const auto& w : sim_workloads()) {
    if (w.name != workload) continue;
    sim = &w;
    int hs = 0;
    for (const int h : w.hs) hs += h;
    threads = hs * w.nthreads + static_cast<int>(w.hs.size()) - 1;
  }
  if (!sim && workload == "serve_mix") threads = 3 + 1;  // worker ranks + generator
  if (threads == 0) {
    std::cerr << "vcgt_e2e: unknown workload '" << workload << "'\n";
    return 2;
  }
  if (!(seconds > 0.0)) {
    std::cerr << "vcgt_e2e: --seconds=<run length> is required\n";
    return 2;
  }
  if (threads > nproc()) {
    std::cerr << "vcgt_e2e: workload " << workload << " needs " << threads
              << " threads but only " << nproc() << " CPUs are available\n";
    return 3;
  }

  Output o;
  try {
    o = sim ? sim_workload(*sim, seed, seconds, traced, quick)
            : serve_workload(seed, seconds, traced, quick);
  } catch (const std::exception& e) {
    o.failed = std::max(o.attempted, 1L);
    o.attempted = o.failed;
    o.errors.push_back(std::string("run threw: ") + e.what());
  }
  print(workload, o);
  return o.failed == 0 ? 0 : 1;
}
