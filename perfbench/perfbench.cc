// perfbench — host-throughput benchmark of the simulator.
//
//   perfbench --workload <cnn_resnet50|llm_decode|dse_sweep> --seed <n>
//             --seconds <s> --trace <0|1> [--spans <path>]
//
// Runs one workload through the public sim/llm API for about `seconds` of
// host time, checks every operation's outputs, prints a metric table and
// then, as the last line, one JSON object {"correct", "attempted", "failed",
// "metrics"}.
//
//  * --trace 0 measures the end-to-end metrics with every kind of tracing
//    off: no spans, no cycle-level trace, no metrics registry.
//  * --trace 1 runs rounds of one untraced and one traced iteration (plus,
//    on dse_sweep, one traced iteration with the energy meter off). A traced
//    iteration records a span around each call the benchmark makes into a
//    layer's public function, and reads the per-layer counts from
//    sim::Report with the metrics registry on (and, on cnn_resnet50, the
//    cycle-level trace for the bottleneck table). Spans stay in memory and
//    are written to --spans at the end.
//
// Every iteration builds fresh Sessions, so the simulated caches, TLBs and
// DRAM rows start cold each time; the pinned cycle counts are cold-start
// numbers. Simulated counts are correctness checks, not metrics: the
// benchmark measures host time. METRICS.md maps every per-layer metric to
// the end-to-end metric and workload it should move.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/dnn/zoo.h"
#include "src/llm/decode.h"
#include "src/model/lowering/policy.h"
#include "src/sim/experiment.h"
#include "src/sim/session.h"

namespace {

using namespace gemmini;

double now_s() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// ---- Spans ------------------------------------------------------------------

struct Span {
  const char* name = "";
  double start = 0;
  double end = 0;
  int parent = -1;  ///< enclosing span's index; -1 for an iteration's root
  int iter = 0;     ///< iteration the span belongs to
};

/// In-memory span store, shared by the main thread and the sweep workers.
class SpanLog {
 public:
  int open(const char* name, int parent, int iter, double start) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, start, start, parent, iter});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id, double end) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end = end;
  }
  /// Read only after every recording thread has joined.
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// Where calls are recorded; a null log means the iteration is untraced.
struct Ctx {
  SpanLog* log = nullptr;
  int parent = -1;
  int iter = 0;
};

/// Times one call into a layer and, when tracing, records it as a span.
class Scope {
 public:
  Scope(const Ctx& ctx, const char* name) : ctx_(ctx), start_(now_s()) {
    if (ctx_.log != nullptr) {
      id_ = ctx_.log->open(name, ctx_.parent, ctx_.iter, start_);
    }
  }
  /// Context for the calls made inside this one.
  Ctx inner() const { return {ctx_.log, id_, ctx_.iter}; }
  /// Ends the span and returns its host seconds.
  double close() {
    const double end = now_s();
    if (ctx_.log != nullptr) ctx_.log->close(id_, end);
    return end - start_;
  }

 private:
  Ctx ctx_;
  double start_;
  int id_ = -1;
};

/// A span's self time: its duration minus the union of its children's
/// intervals (sweep workers' children overlap each other).
std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].push_back({s.start, s.end});
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& k = kids[i];
    std::sort(k.begin(), k.end());
    double covered = 0;
    double lo = 0;
    double hi = 0;
    for (const auto& [a, b] : k) {
      if (a > hi) {
        covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    covered += hi - lo;
    self[i] = spans[i].end - spans[i].start - covered;
  }
  return self;
}

// ---- Host-speed calibration -------------------------------------------------

/// A fixed kernel with the simulator's mix of host work: string-keyed map
/// lookups, a pointer chase that misses the caches, and block copies. Its
/// time tracks the shared host's speed, which drifts by up to half in phases
/// of tens of seconds to minutes (METRICS.md). It belongs to the benchmark,
/// so no change to the simulator moves it.
class Calibration {
 public:
  /// The kernel's host seconds on the reference host when it is quiet; the
  /// end-to-end timings are scaled to this speed.
  static constexpr double kNominalS = 0.02;

  Calibration() : chain_(std::size_t{1} << 21), src_(1 << 20), dst_(1 << 20) {
    for (int i = 0; i < 64; ++i) {
      counters_["core0.counter." + std::to_string(i * 7919)] =
          static_cast<std::uint64_t>(i);
    }
    for (const auto& [name, value] : counters_) keys_.push_back(&name);
    // Sattolo's shuffle: one cycle through all 8 MB, so every step misses.
    for (std::size_t i = 0; i < chain_.size(); ++i) {
      chain_[i] = static_cast<std::uint32_t>(i);
    }
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (std::size_t i = chain_.size() - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(chain_[i], chain_[x % i]);
    }
    run();  // warm-up pass, outside any measurement
  }

  /// Host seconds of one pass of the kernel.
  double run() {
    const double t0 = now_s();
    std::uint64_t acc = 0;
    for (std::uint32_t i = 0; i < 300000; ++i) {
      acc += counters_.find(*keys_[i & 63])->second;
    }
    std::uint32_t p = 0;
    for (int i = 0; i < 100000; ++i) {
      p = chain_[p];
      acc += p;
    }
    for (int i = 0; i < 40; ++i) {
      std::memcpy(dst_.data(), src_.data(), src_.size());
      acc += static_cast<unsigned char>(dst_[static_cast<std::size_t>(i)]);
    }
    sink_ = acc;
    return now_s() - t0;
  }

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::vector<const std::string*> keys_;
  std::vector<std::uint32_t> chain_;
  std::vector<char> src_, dst_;
  volatile std::uint64_t sink_ = 0;
};

// ---- Per-iteration results --------------------------------------------------

/// Simulated counts of one iteration, summed over its reports. They repeat
/// exactly for a workload; a host-only change must leave every one alone.
struct Counts {
  std::uint64_t cycles = 0;
  std::uint64_t decode_cycles = 0;
  std::uint64_t l2_hits = 0, l2_misses = 0;
  std::uint64_t dram_accesses = 0, dram_row_hits = 0, dram_row_misses = 0;
  std::uint64_t dram_queue_wait = 0, dram_refresh_stall = 0, dram_drains = 0;
  std::uint64_t bus_wait = 0;
  std::uint64_t instructions = 0, macs = 0;
  double utilization_sum = 0;  ///< over reports (core-0 headline each)
  std::uint64_t dma_bytes = 0;  ///< registry: core<N>.dma.{load,store}_bytes
  std::uint64_t tlb_hits = 0, tlb_misses = 0;  ///< registry: core<N>.tlb.*
  std::uint64_t energy_fj = 0;
  std::uint64_t bn_compute = 0, bn_dram = 0, bn_translation = 0,
                bn_bus_wait = 0, bn_dma = 0, bn_cpu = 0;
  std::uint64_t trace_dropped = 0;
  std::uint64_t reports = 0;

  void add(const sim::Report& r) {
    ++reports;
    cycles += r.cycles;
    const auto dec = r.cycles_by_tag.find("decode");
    if (dec != r.cycles_by_tag.end()) decode_cycles += dec->second;
    l2_hits += r.substrate.l2_hits;
    l2_misses += r.substrate.l2_misses;
    for (const auto& ch : r.substrate.dram_channels) {
      dram_accesses += ch.accesses;
      dram_row_hits += ch.row_hits;
      dram_row_misses += ch.row_misses;
      dram_queue_wait += ch.queue_wait_cycles;
      dram_refresh_stall += ch.refresh_stall_cycles;
      dram_drains += ch.write_drains;
    }
    for (const auto& rq : r.substrate.per_requestor) {
      bus_wait += rq.sysbus_wait_cycles + rq.membus_wait_cycles;
    }
    for (const auto& core : r.per_core) {
      instructions += core.accel.instructions;
      macs += core.accel.macs;
    }
    utilization_sum += r.array_utilization;
    for (const auto& [name, value] : r.metrics.counters) {
      if (!name.starts_with("core")) continue;
      if (name.ends_with(".dma.load_bytes") ||
          name.ends_with(".dma.store_bytes")) {
        dma_bytes += value;
      } else if (name.ends_with(".tlb.hits")) {
        tlb_hits += value;
      } else if (name.ends_with(".tlb.misses")) {
        tlb_misses += value;
      }
    }
    energy_fj += r.energy.total_fj;
    for (const auto& b : r.bottlenecks) {
      bn_compute += b.compute;
      bn_dram += b.dram;
      bn_translation += b.translation;
      bn_bus_wait += b.bus_wait;
      bn_dma += b.dma;
      bn_cpu += b.cpu;
    }
    trace_dropped += r.trace_dropped_events;
  }
};

struct PointTime {
  unsigned cores = 1;
  double seconds = 0;
};

/// One iteration of a workload: one inference, one decode, or one sweep.
struct Iteration {
  double wall_s = 0;
  double setup_s = 0;  ///< build + plan, build + workload, or the grid
  double run_s = 0;    ///< simulate phase: run(plan), run_stream, Sweep::run
  std::uint64_t ops = 0;     ///< operations attempted: iterations or points
  std::uint64_t failed = 0;  ///< operations that failed a check
  Counts counts;
  /// Traced iterations only: each design point's host seconds, and the
  /// workers' summed point time over (threads x run phase).
  std::vector<PointTime> points;
  double busy_ratio = 0;
};

double point_seconds(const Iteration& it) {
  double s = 0;
  for (const PointTime& p : it.points) s += p.seconds;
  return s;
}

// ---- Workloads --------------------------------------------------------------

metrics::MetricsConfig registry_totals() {
  metrics::MetricsConfig cfg;
  cfg.enabled = true;  // registry totals only, no sampler windows
  return cfg;
}

class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  Workload(Workload&&) = delete;
  Workload& operator=(Workload&&) = delete;

  /// One checked iteration. `traced` turns on the metrics registry and
  /// records spans into ctx.log; `energy` is the dse meter switch.
  virtual Iteration run(const Ctx& ctx, bool traced, bool energy) = 0;
  /// Operations one iteration attempts (the unit of error_rate).
  virtual std::uint64_t ops() const { return 1; }
  /// Whether traced rounds also measure the energy meter's overhead.
  virtual bool meters_energy() const { return false; }

 protected:
  /// Repeated runs in one process must serialize byte-identically.
  bool deterministic(const std::string& json, bool traced) {
    std::string& first = traced ? first_traced_json_ : first_json_;
    if (first.empty()) first = json;
    return json == first;
  }

  /// A single-point iteration: builds one Session, prepares the workload
  /// with `setup` (spanned as `setup_span`), simulates it with `run` and
  /// serializes the report. The session stays in session_ for the output
  /// checks; the previous one is destroyed before the clock starts.
  template <class Setup, class Run>
  Iteration one_point(const Ctx& ctx, const sim::Session::Builder& builder,
                      const char* setup_span, Setup&& setup, Run&& run,
                      sim::Report& rep, std::string& json) {
    session_.reset();
    Iteration it;
    it.ops = 1;
    Scope point(ctx, "sim.point");
    const Ctx in = point.inner();
    Scope build(in, "sim.build");
    session_ = std::make_unique<sim::Session>(builder.build());
    it.setup_s = build.close();
    Scope setup_scope(in, setup_span);
    const auto prepared = setup(*session_);
    it.setup_s += setup_scope.close();
    Scope run_scope(in, "soc.run");
    rep = run(*session_, prepared);
    it.run_s = run_scope.close();
    Scope report(in, "sim.report");
    json = rep.to_json();
    report.close();
    it.wall_s = point.close();
    it.points.push_back({1, it.wall_s});
    it.busy_ratio = 1;
    it.counts.add(rep);
    return it;
  }

  std::unique_ptr<sim::Session> session_;

 private:
  std::string first_json_, first_traced_json_;
};

// cnn_resnet50: the golden functional inference on the base SoC, one fresh
// Session per iteration, logits checked against a CPU-only run.
class CnnWorkload final : public Workload {
 public:
  static constexpr Cycle kCycles = 9355595;
  /// Holds every event of one inference (about 6.7M), so the bottleneck
  /// table covers all layers.
  static constexpr std::size_t kTraceEvents = std::size_t{1} << 23;

  explicit CnnWorkload(std::uint64_t seed) : seed_(seed) {
    // Untimed reference: the same seed with every layer on the CPU kernels.
    sim::Session ref =
        sim::Session::builder(config())
            .functional()
            .seed(seed_)
            .placement(std::make_shared<const lowering::CpuOnlyPlacement>())
            .build();
    ref.run(model_);
    reference_ = logits(ref);
  }

  static SocConfig config() {
    SocConfig cfg = SocConfig::base_1mb_l2();
    cfg.accel.has_im2col = true;
    return cfg;
  }

  Iteration run(const Ctx& ctx, bool traced, bool) override {
    auto builder = sim::Session::builder(config()).functional().seed(seed_);
    if (traced) {
      trace::TraceConfig tc = trace::TraceConfig::enabled_default();
      tc.buffer_events = kTraceEvents;
      builder.trace(tc).metrics(registry_totals());
    }
    sim::Report rep;
    std::string json;
    Iteration it = one_point(
        ctx, builder, "model.plan",
        [&](sim::Session& s) { return s.plan(model_); },
        [](sim::Session& s, const sim::Plan& plan) { return s.run(plan); },
        rep, json);
    const bool ok = rep.status == "ok" && rep.cycles == kCycles &&
                    logits(*session_) == reference_ &&
                    deterministic(json, traced);
    if (!ok) {
      std::fprintf(stderr, "cnn_resnet50 check failed: status %s, cycles %llu\n",
                   rep.status.c_str(),
                   static_cast<unsigned long long>(rep.cycles));
    }
    it.failed = ok ? 0 : 1;
    return it;
  }

 private:
  std::vector<std::int8_t> logits(sim::Session& s) const {
    const std::size_t out = model_.layers().size() - 1;
    std::vector<std::int8_t> v(model_.shape(out).elems());
    s.address_space().read_virt(s.last_lowered().layer_output[out], v.data(),
                                v.size());
    return v;
  }

  std::uint64_t seed_;
  Model model_ = zoo::resnet50(32);
  std::vector<std::int8_t> reference_;
};

// llm_decode: batch-1 timing-only decode on the contended system (4 MB L2,
// 2 XOR-folded FR-FCFS channels, write queue, refresh), through the two
// public calls llm::run_decode makes.
class LlmWorkload final : public Workload {
 public:
  static constexpr Cycle kCycles = 99861951;
  static constexpr double kCyclesPerToken = 2574813.4375;

  explicit LlmWorkload(std::uint64_t seed) : seed_(seed) {
    cfg_.hidden = 512;
    cfg_.heads = 8;
    cfg_.prompt_tokens = 256;
    cfg_.decode_steps = 16;
  }

  static SocConfig config() {
    SocConfig cfg = SocConfig::base_1mb_l2();
    cfg.accel.has_im2col = true;
    cfg.mem.l2.size_bytes = 4ull << 20;
    cfg.mem.dram.channels = 2;
    cfg.mem.dram.scheduler = DramScheduler::kFrFcfs;
    cfg.mem.dram.interleave = DramInterleave::kXorFold;
    cfg.mem.dram.write_queue_depth = 16;
    cfg.mem.dram.write_drain_floor = 4;
    cfg.mem.dram.refresh_interval = 7800;
    cfg.mem.dram.refresh_latency = 280;
    return cfg;
  }

  Iteration run(const Ctx& ctx, bool traced, bool) override {
    auto builder = sim::Session::builder(config()).seed(seed_);
    if (traced) builder.metrics(registry_totals());
    sim::Report rep;
    std::string json;
    Iteration it = one_point(
        ctx, builder, "llm.workload",
        [&](sim::Session& s) {
          return llm::build_decode_workload(cfg_, s.config().accel,
                                            s.config().cpu, s.address_space(0),
                                            seed_, /*functional=*/false);
        },
        [&](sim::Session& s, const llm::DecodeWorkload& w) {
          const Cycle baseline =
              s.config().cpu.gemm_cycles(w.prefill_macs + w.decode_macs);
          return s.run_stream(w.stream, cfg_.label(), baseline);
        },
        rep, json);
    const double cpt = static_cast<double>(it.counts.decode_cycles) /
                       static_cast<double>(cfg_.decode_steps * cfg_.batch);
    const bool ok = rep.status == "ok" && rep.cycles == kCycles &&
                    cpt == kCyclesPerToken && deterministic(json, traced);
    if (!ok) {
      std::fprintf(stderr, "llm_decode check failed: status %s, cycles %llu, "
                   "cycles/token %.4f\n", rep.status.c_str(),
                   static_cast<unsigned long long>(rep.cycles), cpt);
    }
    it.failed = ok ? 0 : 1;
    return it;
  }

 private:
  std::uint64_t seed_;
  llm::DecodeConfig cfg_;
};

// dse_sweep: Fig. 9's {Base, BigSP, BigL2} x {1, 2} cores x {squeezenet,
// mobilenet}, multicore, energy metered, fanned over two sweep workers.
class DseWorkload final : public Workload {
 public:
  static constexpr unsigned kThreads = 2;

  explicit DseWorkload(std::uint64_t seed) : seed_(seed) {}

  std::uint64_t ops() const override { return pins().size(); }
  bool meters_energy() const override { return true; }

  Iteration run(const Ctx& ctx, bool traced, bool energy) override {
    Iteration it;
    it.ops = ops();
    Scope sweep_scope(ctx, "sim.sweep");
    const Ctx in = sweep_scope.inner();
    Scope grid_scope(in, "sim.grid");
    const sim::Sweep sweep = grid(energy);
    it.setup_s = grid_scope.close();

    const double t0 = now_s();
    const std::vector<sim::Report> reports =
        traced ? run_traced(sweep, in, it) : sweep.run({.threads = kThreads});
    it.run_s = now_s() - t0;
    it.busy_ratio = point_seconds(it) / (kThreads * it.run_s);
    std::string json;
    if (!traced) {
      Scope report(in, "sim.report");
      json = sim::reports_to_json(reports);
      report.close();
    }
    it.wall_s = sweep_scope.close();

    for (std::size_t i = 0; i < reports.size(); ++i) {
      const sim::Report& r = reports[i];
      it.counts.add(r);
      const Pin* pin = i < pins().size() ? &pins()[i] : nullptr;
      const bool ok = pin != nullptr && r.status == "ok" &&
                      r.point == pin->point && r.cycles == pin->cycles &&
                      r.energy.total_fj == (energy ? pin->total_fj : 0);
      if (!ok) {
        std::fprintf(stderr, "dse_sweep check failed: point %s status %s, "
                     "cycles %llu, total_fj %llu\n", r.point.c_str(),
                     r.status.c_str(), static_cast<unsigned long long>(r.cycles),
                     static_cast<unsigned long long>(r.energy.total_fj));
        ++it.failed;
      }
    }
    if (reports.size() != pins().size() ||
        (!traced && !deterministic(json, false))) {
      it.failed = it.ops;
    }
    return it;
  }

 private:
  struct Pin {
    const char* point;
    Cycle cycles;
    std::uint64_t total_fj;
  };

  /// Cycles and energy of every point, in grid order, as simulated when this
  /// benchmark was introduced.
  static const std::vector<Pin>& pins() {
    static const std::vector<Pin> kPins = {
        {"Base-1c/squeezenet_v1.1", 1032561, 85073751592},
        {"Base-1c/mobilenetv2", 3503052, 260461252544},
        {"BigSP-1c/squeezenet_v1.1", 1031584, 93143111976},
        {"BigSP-1c/mobilenetv2", 3491430, 287466925920},
        {"BigL2-1c/squeezenet_v1.1", 879233, 74737726376},
        {"BigL2-1c/mobilenetv2", 3582322, 266086021984},
        {"Base-2c/squeezenet_v1.1", 1281482, 128992309104},
        {"Base-2c/mobilenetv2", 4569477, 399053798544},
        {"BigSP-2c/squeezenet_v1.1", 1318673, 142366724272},
        {"BigSP-2c/mobilenetv2", 4677648, 448428175472},
        {"BigL2-2c/squeezenet_v1.1", 1318678, 132931494416},
        {"BigL2-2c/mobilenetv2", 4597806, 403453962032},
    };
    return kPins;
  }

  sim::Sweep grid(bool energy) const {
    std::vector<SocConfig> configs;
    for (const unsigned cores : {1u, 2u}) {
      for (SocConfig cfg : {SocConfig::base_1mb_l2(), SocConfig::big_sp(),
                            SocConfig::big_l2()}) {
        cfg.accel.has_im2col = true;
        cfg.cores = cores;
        cfg.name += "-" + std::to_string(cores) + "c";
        configs.push_back(std::move(cfg));
      }
    }
    sim::Experiment exp;
    exp.configs(std::move(configs))
        .models({zoo::squeezenet_v11(64), zoo::mobilenet_v2(64)})
        .multicore()
        .seed(seed_);
    if (energy) exp.energy();
    return exp.sweep();
  }

  /// Sweep::run's worker pool, with each point taking Sweep::run_point's
  /// single-inference path so that its build, run and report calls are
  /// spanned. Records every point's host seconds in it.points.
  std::vector<sim::Report> run_traced(const sim::Sweep& sweep, const Ctx& in,
                                      Iteration& it) const {
    const auto& points = sweep.points();
    std::vector<sim::Report> reports(points.size());
    std::vector<double> seconds(points.size(), 0.0);
    std::atomic<std::size_t> next{0};
    auto work = [&] {
      for (std::size_t i = next++; i < points.size(); i = next++) {
        const sim::SweepPoint& p = points[i];
        Scope point(in, "sim.point");
        const Ctx pin = point.inner();
        try {
          Scope build(pin, "sim.build");
          sim::Session session = sim::Session::builder(p.config)
                                     .functional(p.functional)
                                     .seed(p.seed)
                                     .placement(p.placement)
                                     .tiling(p.tiling)
                                     .metrics(registry_totals())
                                     .energy(p.energy)
                                     .build();
          build.close();
          Scope run(pin, "soc.run");
          reports[i] = p.multicore ? session.run_multicore(p.model)
                                   : session.run(p.model);
          run.close();
          reports[i].point = p.name;
          Scope report(pin, "sim.report");
          reports[i].to_json();
          report.close();
        } catch (const std::exception& e) {
          reports[i].status = "error";
          reports[i].error = e.what();
        }
        seconds[i] = point.close();
      }
    };
    {
      std::vector<std::jthread> pool;
      for (unsigned t = 0; t < kThreads; ++t) pool.emplace_back(work);
    }
    for (std::size_t i = 0; i < points.size(); ++i) {
      it.points.push_back({points[i].config.cores, seconds[i]});
    }
    return reports;
  }

  std::uint64_t seed_;
};

// ---- Statistics and output --------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return s;
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

std::string num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

/// "median M (n=N, min m, pQ T)" with the highest of p99/p95/p90/p75 that
/// has at least ten samples above it, or no tail when none has.
std::string summary(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  if (v.empty()) return "no samples";
  const std::string out = "median " + num(median(v)) + " (n=" +
                          std::to_string(v.size()) + ", min " + num(v.front());
  for (const int p : {99, 95, 90, 75}) {
    const auto rank = static_cast<std::size_t>(
        static_cast<double>(v.size()) * p / 100.0);
    if (rank < v.size() && v.size() - rank - 1 >= 10) {
      return out + ", p" + std::to_string(p) + " " + num(v[rank]) + ")";
    }
  }
  return out + ", no tail: under 10 samples above p75)";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  std::printf("\n%-36s %18s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::printf("%-36s %18.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%-36s %18.6g  failed/attempted (%llu/%llu)\n", "error_rate",
              ratio(static_cast<double>(tally.failed),
                    static_cast<double>(tally.attempted)),
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted));
  std::string json = "{\"correct\": ";
  json += tally.failed == 0 && tally.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ---- Main loop ---------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string spans_path;
};

bool parse_u64(const char* s, std::uint64_t& out) {
  const char* end = s + std::strlen(s);
  const auto res = std::from_chars(s, end, out);
  return end != s && res.ec == std::errc() && res.ptr == end;
}

bool parse_args(int argc, char** argv, Args& a) {
  if (argc % 2 != 1) return false;
  unsigned required = 0;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    std::uint64_t n = 0;
    if (key == "--workload") {
      a.workload = val;
      required |= 1;
    } else if (key == "--seed" && parse_u64(val, n)) {
      a.seed = n;
      required |= 2;
    } else if (key == "--seconds" && parse_u64(val, n) && n >= 1 &&
               n <= 3600) {
      a.seconds = static_cast<double>(n);
      required |= 4;
    } else if (key == "--trace" && parse_u64(val, n) && n <= 1) {
      a.trace = n == 1;
      required |= 8;
    } else if (key == "--spans") {
      a.spans_path = val;
    } else {
      return false;
    }
  }
  return required == 15;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "cnn_resnet50") return std::make_unique<CnnWorkload>(seed);
  if (name == "llm_decode") return std::make_unique<LlmWorkload>(seed);
  if (name == "dse_sweep") return std::make_unique<DseWorkload>(seed);
  return nullptr;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Runs one iteration and tallies its operations. Returns false when it
/// threw: every operation then counts as failed and there are no timings.
bool run_checked(Workload& w, const Ctx& ctx, bool traced, bool energy,
                 Tally& tally, Iteration& out) {
  try {
    out = w.run(ctx, traced, energy);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "iteration failed: %s\n", e.what());
    tally.attempted += w.ops();
    tally.failed += w.ops();
    return false;
  }
  tally.attempted += out.ops;
  tally.failed += out.failed;
  return true;
}

/// Calls `step` (which returns its host seconds) at least `min_steps` times,
/// then while another step is expected to end within `budget_s`.
template <class Step>
void repeat_within(double budget_s, std::size_t min_steps, Step&& step) {
  const double started = now_s();
  double last = 0;
  for (std::size_t done = 0;
       done < min_steps || now_s() - started + last <= budget_s; ++done) {
    last = step();
  }
}

int run_untraced(Workload& w, const Args& args) {
  Tally tally;
  Calibration calibration;
  std::vector<double> wall, setup, mcps, pps, raw_wall, raw_setup, cal_s;
  const double started = now_s();
  Iteration warm;  // checked but not timed: the allocator settles
  run_checked(w, {}, false, true, tally, warm);
  repeat_within(args.seconds - (now_s() - started), 3, [&] {
    const double t0 = now_s();
    const double before = calibration.run();
    Iteration it;
    const bool completed = run_checked(w, {}, false, true, tally, it);
    const double after = calibration.run();
    if (completed) {
      // Host seconds scaled to the nominal calibration speed.
      const double scale = Calibration::kNominalS / (0.5 * (before + after));
      cal_s.push_back(0.5 * (before + after));
      raw_wall.push_back(it.wall_s);
      raw_setup.push_back(it.setup_s);
      wall.push_back(it.wall_s * scale);
      setup.push_back(it.setup_s * scale);
      mcps.push_back(static_cast<double>(it.counts.cycles) / 1e6 /
                     (it.run_s * scale));
      pps.push_back(static_cast<double>(it.ops) / (it.wall_s * scale));
    }
    return now_s() - t0;
  });
  std::printf("%s, seed %llu, tracing off; simulated state starts cold in "
              "every iteration\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed));
  std::printf("raw wall_s        %s\nraw setup_s       %s\ncalibration_s     "
              "%s (nominal %s)\nscaled wall_s     %s\nscaled setup_s    %s\n",
              summary(raw_wall).c_str(), summary(raw_setup).c_str(),
              summary(cal_s).c_str(), num(Calibration::kNominalS).c_str(),
              summary(wall).c_str(), summary(setup).c_str());
  print_result(tally, {
                          {"wall_s", median(wall), "s"},
                          {"setup_s", median(setup), "s"},
                          {"sim_mcycles_per_s", median(mcps), "Mcycle/s"},
                          {"points_per_s", median(pps), "1/s"},
                          {"peak_rss_mb", peak_rss_mb(), "MB"},
                      });
  return 0;
}

void write_spans(const std::string& path, const std::vector<Span>& spans,
                 const std::vector<double>& self) {
  std::ofstream out(path);
  out << "[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"id\": " << i << ", \"name\": \""
        << s.name << "\", \"parent\": " << s.parent << ", \"iter\": " << s.iter
        << ", \"start_s\": " << num(s.start) << ", \"end_s\": " << num(s.end)
        << ", \"self_s\": " << num(self[i]) << "}";
  }
  out << "\n]\n";
  if (!out.good()) {
    std::fprintf(stderr, "could not write spans to %s\n", path.c_str());
  }
}

int run_traced(Workload& w, const Args& args) {
  Tally tally;
  SpanLog log;
  std::vector<double> untraced_wall;
  std::vector<Iteration> traced;
  std::vector<int> traced_ids;
  std::vector<double> meter_on_s, meter_off_s;  // summed point seconds
  int next_id = 0;
  const double started = now_s();
  Iteration warm;
  run_checked(w, {}, false, true, tally, warm);
  repeat_within(args.seconds - (now_s() - started), 2, [&] {
    const double t0 = now_s();
    Iteration it;
    if (run_checked(w, {}, false, true, tally, it)) {
      untraced_wall.push_back(it.wall_s);
    }
    const int id = ++next_id;
    if (run_checked(w, {&log, -1, id}, true, true, tally, it)) {
      traced.push_back(it);
      traced_ids.push_back(id);
      meter_on_s.push_back(point_seconds(it));
    }
    if (w.meters_energy() &&
        run_checked(w, {&log, -1, ++next_id}, true, false, tally, it)) {
      meter_off_s.push_back(point_seconds(it));
    }
    return now_s() - t0;
  });

  // Spans of the energy-metered traced iterations, by name.
  const std::vector<Span>& spans = log.spans();
  const std::vector<double> self = self_times(spans);
  std::map<std::string, std::vector<double>> self_by_name, dur_by_name;
  double root_s = 0, root_self_s = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (std::find(traced_ids.begin(), traced_ids.end(), s.iter) ==
        traced_ids.end()) {
      continue;
    }
    self_by_name[s.name].push_back(self[i]);
    dur_by_name[s.name].push_back(s.end - s.start);
    if (s.parent < 0) {
      root_s += s.end - s.start;
      root_self_s += self[i];
    }
  }
  std::vector<double> traced_wall, point_1c, point_2c, point_max, busy;
  for (const Iteration& t : traced) {
    traced_wall.push_back(t.wall_s);
    busy.push_back(t.busy_ratio);
    double slowest = 0;
    for (const PointTime& p : t.points) {
      (p.cores == 1 ? point_1c : point_2c).push_back(p.seconds);
      slowest = std::max(slowest, p.seconds);
    }
    point_max.push_back(slowest);
  }

  std::printf("%s, seed %llu: %zu traced iterations, each paired with an "
              "untraced one; simulated state starts cold in every iteration\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              traced.size());
  std::printf("%-14s %6s %14s %14s %10s\n", "span", "calls", "median_self_s",
              "median_dur_s", "self_share");
  for (const auto& [name, v] : self_by_name) {
    std::printf("%-14s %6zu %14.6g %14.6g %10.4f\n", name.c_str(), v.size(),
                median(v), median(dur_by_name[name]), ratio(sum(v), root_s));
  }
  std::printf("traced wall_s   %s\nuntraced wall_s %s\n",
              summary(traced_wall).c_str(), summary(untraced_wall).c_str());

  const Counts c = traced.empty() ? Counts{} : traced.front().counts;
  if (c.trace_dropped > 0) {
    std::printf("warning: %llu trace events dropped; bottleneck cycles are "
                "partial\n", static_cast<unsigned long long>(c.trace_dropped));
  }
  auto share = [&](const char* name) {
    return ratio(sum(self_by_name[name]), root_s);
  };
  auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  // Host nanoseconds in the simulate calls per traced iteration; divided
  // by the iteration's simulated cycles or L2 accesses below.
  const double run_ns = ratio(sum(self_by_name["soc.run"]) * 1e9,
                              static_cast<double>(traced.size()));
  const double l2 = count(c.l2_hits + c.l2_misses);
  const double rows = count(c.dram_row_hits + c.dram_row_misses);
  const double tlb = count(c.tlb_hits + c.tlb_misses);
  const std::vector<Metric> metrics = {
      {"sim.build_s", median(self_by_name["sim.build"]), "s"},
      {"sim.report_s", median(self_by_name["sim.report"]), "s"},
      {"sim.point_s", median(dur_by_name["sim.point"]), "s"},
      {"sim.point_max_s", median(point_max), "s"},
      {"sim.point_2core_ratio", ratio(median(point_2c), median(point_1c)),
       "ratio"},
      {"sim.worker_busy_ratio", median(busy), "ratio"},
      {"model.plan_share", share("model.plan"), "ratio"},
      {"llm.workload_share", share("llm.workload"), "ratio"},
      {"llm.decode_cycle_share", ratio(count(c.decode_cycles), count(c.cycles)),
       "ratio"},
      {"soc.run_s", median(self_by_name["soc.run"]), "s"},
      {"soc.host_ns_per_sim_cycle", ratio(run_ns, count(c.cycles)),
       "ns/cycle"},
      {"mem.l2_accesses", l2, "count"},
      {"mem.l2_hit_rate", ratio(count(c.l2_hits), l2), "ratio"},
      {"mem.host_ns_per_l2_access", ratio(run_ns, l2), "ns"},
      {"mem.dram_accesses", count(c.dram_accesses), "count"},
      {"mem.dram_row_hit_rate", ratio(count(c.dram_row_hits), rows), "ratio"},
      {"mem.dram_queue_wait_cycles", count(c.dram_queue_wait), "cycles"},
      {"mem.dram_refresh_stall_cycles", count(c.dram_refresh_stall), "cycles"},
      {"mem.dram_write_drains", count(c.dram_drains), "count"},
      {"mem.bus_wait_cycles", count(c.bus_wait), "cycles"},
      {"accel.instructions", count(c.instructions), "count"},
      {"accel.macs", count(c.macs), "count"},
      {"accel.array_utilization",
       ratio(c.utilization_sum, count(c.reports)), "ratio"},
      {"accel.dma_bytes", count(c.dma_bytes), "bytes"},
      {"vm.tlb_hit_rate", ratio(count(c.tlb_hits), tlb), "ratio"},
      {"vm.tlb_misses", count(c.tlb_misses), "count"},
      {"energy.total_fj", count(c.energy_fj), "fJ"},
      {"energy.meter_overhead_ratio",
       w.meters_energy() ? ratio(median(meter_on_s), median(meter_off_s)) - 1
                         : 0.0,
       "ratio"},
      {"trace.bottleneck.compute_cycles", count(c.bn_compute), "cycles"},
      {"trace.bottleneck.dram_cycles", count(c.bn_dram), "cycles"},
      {"trace.bottleneck.translation_cycles", count(c.bn_translation),
       "cycles"},
      {"trace.bottleneck.bus_wait_cycles", count(c.bn_bus_wait), "cycles"},
      {"trace.bottleneck.dma_cycles", count(c.bn_dma), "cycles"},
      {"trace.bottleneck.cpu_cycles", count(c.bn_cpu), "cycles"},
      {"trace.overhead_ratio",
       ratio(median(traced_wall), median(untraced_wall)) - 1, "ratio"},
      {"trace.span_coverage", 1 - ratio(root_self_s, root_s), "ratio"},
  };
  if (!args.spans_path.empty()) write_spans(args.spans_path, spans, self);
  print_result(tally, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "<cnn_resnet50|llm_decode|dse_sweep> --seed <n> "
                 "--seconds <1..3600> --trace <0|1> [--spans <path>]\n");
    return 2;
  }
  now_s();
  std::unique_ptr<Workload> w;
  try {
    w = make_workload(args.workload, args.seed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload set-up failed: %s\n", e.what());
    return 1;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  return args.trace ? run_traced(*w, args) : run_untraced(*w, args);
}
