#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <random>

#include "calibrate.h"
#include "compiler/compiler.h"
#include "models/bucketing.h"
#include "runtime/executor.h"
#include "serving/cost_model.h"
#include "serving/fleet.h"
#include "serving/trace.h"
#include "serving/weights.h"
#include "sim/simulator.h"
#include "stats.h"
#include "support/error.h"
#include "timed_cost.h"
#include "trace.h"

namespace perfbench {

namespace {

using namespace streamtensor;
using Clock = std::chrono::steady_clock;

/** Repetitions of the timed phase a run makes at least, and at
 *  most, whatever --seconds says. */
constexpr int kMinReps = 3;
constexpr int kMaxReps = 1000;

/** setup_s is the median of one sample before each repetition, so
 *  the samples spread over the run as the repetitions do. A sample
 *  repeats the set-up until at least kSetupSampleSeconds have
 *  passed and is the time per set-up, so set-ups of microseconds
 *  are timed over many calls rather than one. */
constexpr double kSetupSampleSeconds = 0.04;

/** referenceWork() calls in one probe of a CPU's slowdown. */
constexpr int kProbeCalls = 3;

/** Bounds on the traced run's time, less the work only it does,
 *  over the untraced set-up plus repetition: tracing may add the
 *  decorator's clock reads and one repetition may land in a slow
 *  phase of the machine, but a span that misses or double-counts a
 *  layer, or a set-up timed per batch instead of per call, falls
 *  outside. */
constexpr double kTracedRatioMin = 0.5;
constexpr double kTracedRatioMax = 3.0;

/** Share of the traced wall time that may lie outside every layer
 *  span. */
constexpr double kMaxUnattributed = 0.05;

/** Spans around work that only the traced run does. */
const char *const kTracedOnlySpans[] = {
    "trace.rederive", "trace.attribute", "serving.trace_gen"};

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string
fmt(const char *format, double a, double b = 0.0, double c = 0.0)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf), format, a, b, c);
    return buf;
}

/** Traced-run state: host spans, simulated spans, and per-layer
 *  sums keyed by catalogue name. */
struct Tracing
{
    SpanRecorder host{"host"};
    SpanRecorder sim{"sim"};
    std::map<std::string, double> layer;
};

/** Failed output checks. */
struct Checks
{
    std::vector<std::string> failures;

    void
    expect(bool ok, const std::string &what)
    {
        if (!ok && failures.size() < 32)
            failures.push_back(what);
    }
};

/** Everything one repetition computed on the simulated clock (or
 *  by counting), keyed by name: deterministic in the seed, so
 *  repetitions and the traced run must agree bit for bit. */
using SimValues = std::vector<std::pair<std::string, double>>;

struct Rep
{
    SimValues sim;
    int64_t attempted = 0;
    int64_t failed = 0;

    /** Work items the host throughput counts. */
    int64_t completed = 0;
};

double
simValue(const SimValues &values, const std::string &name)
{
    for (const auto &[key, v] : values)
        if (key == name)
            return v;
    ST_PANIC("missing simulated value " + name);
}

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Whether set-up, and the timed phase, run pinned: all
     *  threads on one CPU, the next allowed CPU for each set-up
     *  sample and each repetition, so a CPU that another tenant
     *  slows down holds back only its share of them. A phase that
     *  reaches no thread pool loses nothing by it. An unpinned
     *  phase runs on every allowed CPU. */
    virtual bool pinSetup() const { return true; }
    virtual bool pinRuns() const { return true; }

    /** Build what the timed phase needs, replacing earlier
     *  fixtures. */
    virtual void setup(Tracing *tracing, Checks &checks) = 0;

    /** One repetition of the timed phase. */
    virtual Rep run(Tracing *tracing, Checks &checks) = 0;
};

// ---------------------------------------------------------------
// Compile-side attribution shared by the workloads that build
// accelerator blocks.
// ---------------------------------------------------------------

/** Fetch @p shapes from @p executor. Traced, the call is a
 *  runtime.block span; a miss is then re-derived through the
 *  public compile chain (graph -> compiler::compile ->
 *  sim::simulateAll), each step its own span, and the
 *  re-simulation must match the executor's cached block bit for
 *  bit. Returns the executor's block. */
const runtime::CompiledBlock &
buildBlock(runtime::LlmExecutor &executor,
           const models::BlockShapes &shapes, Tracing *tracing,
           Checks &checks)
{
    if (!tracing)
        return executor.block(shapes);

    SpanRecorder &host = tracing->host;
    int64_t before = executor.compileCount();
    double t0 = host.now();
    const runtime::CompiledBlock *blk = nullptr;
    {
        SpanRecorder::Scope span(&host, "runtime.block");
        blk = &executor.block(shapes);
    }
    int64_t compiled = executor.compileCount() - before;
    tracing->layer["runtime.compiles"] += static_cast<double>(compiled);
    if (compiled == 0)
        return *blk;
    tracing->layer["runtime.block_miss_s"] += host.now() - t0;

    // Work only the traced run does; the reconciliation below takes
    // it out before comparing with the untraced run.
    SpanRecorder::Scope rederive(&host, "trace.rederive");
    linalg::Graph graph;
    {
        SpanRecorder::Scope span(&host, "models.build_graph");
        graph = models::buildTransformerBlock(executor.config(),
                                              shapes);
    }

    double c0 = host.now();
    compiler::CompileResult result = compiler::compile(
        std::move(graph), executor.platform(), {});
    double c1 = host.now();
    int64_t compile_span =
        host.add(host.intern("compiler.compile"), c0, c1,
                 host.current());
    // Stages run back to back inside compile(): lay their recorded
    // durations out in order as children of the compile span.
    double t = c0;
    double stage_sum = 0.0;
    for (const auto &[stage, seconds] : result.times.stages) {
        host.add(host.intern("compiler." + stage), t, t + seconds,
                 compile_span);
        t += seconds;
        stage_sum += seconds;
        tracing->layer["compiler." + stage + "_s"] += seconds;
    }
    checks.expect(stage_sum == result.times.total(),
                  "compile stage times do not sum to "
                  "CompileResult::times.total()");
    checks.expect(stage_sum <= c1 - c0,
                  "compile stage times exceed the compile call");
    tracing->layer["compiler.fused_groups"] += static_cast<double>(
        result.design.components.numGroups());
    tracing->layer["compiler.clamped_fifos"] +=
        static_cast<double>(result.clamped_fifos);
    tracing->layer["compiler.crossings"] +=
        static_cast<double>(result.totalCrossings());

    double s0 = host.now();
    std::vector<sim::SimResult> sims;
    {
        SpanRecorder::Scope span(&host, "sim.simulateAll");
        sims = sim::simulateAll(result.design.components);
    }
    double sim_s = host.now() - s0;

    bool same = sims.size() == blk->sims.size();
    double cycles = 0.0;
    for (size_t g = 0; same && g < sims.size(); ++g) {
        const sim::SimResult &a = sims[g];
        const sim::SimResult &b = blk->sims[g];
        same = a.cycles == b.cycles && a.events == b.events &&
               a.first_output_cycle == b.first_output_cycle &&
               a.deadlock == b.deadlock &&
               a.timed_out == b.timed_out &&
               a.crossing_stall_cycles == b.crossing_stall_cycles;
        cycles += a.cycles;
        tracing->layer["sim.events"] += static_cast<double>(a.events);
        tracing->layer["sim.crossing_stall_cycles"] +=
            a.crossing_stall_cycles;
        for (const auto &c : a.components)
            tracing->layer["sim.stall_cycles"] += c.stall_cycles;
    }
    checks.expect(same, "re-simulating a block through the public "
                        "chain disagrees with the executor's block");
    const char *phase = shapes.seq_len > 1 ? "prefill" : "decode";
    tracing->layer[std::string("sim.") + phase + "_host_s"] += sim_s;
    tracing->layer[std::string("sim.") + phase + "_cycles"] += cycles;
    return *blk;
}

/** Turn the summed simulated cycles into cycles per host second. */
void
finishSimRates(Tracing &tracing)
{
    for (const char *phase : {"prefill", "decode"}) {
        std::string p(phase);
        double cycles = tracing.layer["sim." + p + "_cycles"];
        double host_s = tracing.layer["sim." + p + "_host_s"];
        tracing.layer.erase("sim." + p + "_cycles");
        tracing.layer["sim." + p + "_cycles_per_s"] =
            host_s > 0.0 ? cycles / host_s : 0.0;
    }
}

// ---------------------------------------------------------------
// model_zoo_build
// ---------------------------------------------------------------

/** The paper's Table 4 [input:output] points. */
const std::vector<std::pair<int64_t, int64_t>> kTable4 = {
    {32, 32}, {64, 64}, {128, 128}, {256, 256}};

/** Offline build: four models, every bucket of the default ladder,
 *  then the Table 4 points and their seeded neighbours through
 *  LlmExecutor::run. Compiler, simulator and the executor's miss
 *  path do the work; serving does none. */
class ModelZooBuild : public Workload
{
  public:
    explicit ModelZooBuild(uint64_t seed)
        : configs_(models::allConfigs()),
          ladder_(models::bucketBoundaries(models::BucketPolicy{}))
    {
        // Each Table 4 point [L:L] also runs once at a seeded
        // neighbour: the prompt 0-24 tokens longer in steps of 8 and
        // the output 0-48 longer in steps of 16, so prompts and the
        // decode context (prompt + output / 2) stay multiples of 8,
        // as a server padding to 8 tokens would keep them (NOTES.md:
        // prime lengths make far slower designs). The seed moves
        // every simulated latency without changing the amount of
        // work much.
        std::mt19937_64 rng(seed);
        for (size_t m = 0; m < configs_.size(); ++m) {
            std::vector<std::pair<int64_t, int64_t>> points = kTable4;
            for (auto [in, out] : kTable4) {
                int64_t din = 8 * static_cast<int64_t>(rng() % 4);
                int64_t dout = 16 * static_cast<int64_t>(rng() % 4);
                points.push_back({in + din, out + dout});
            }
            points_.push_back(points);
        }
    }

    /** Nine tenths of a build is simulateAll, which fans a block's
     *  groups out over the shared thread pool: measured as used. */
    bool pinRuns() const override { return false; }

    /** The Fig. 10a reference: each model's block compiled at
     *  prefill 256, its fused intermediate memory over the
     *  unfused. */
    void
    setup(Tracing *tracing, Checks &checks) override
    {
        fused_fraction_ = 0.0;
        for (const auto &cfg : configs_) {
            SpanRecorder::Scope span(tracing ? &tracing->host : nullptr,
                                     "compiler.compile");
            auto result = compiler::compile(
                models::buildTransformerBlock(
                    cfg, models::prefillShapes(256)),
                hls::u55c(), {});
            auto original = static_cast<double>(
                result.design.original_intermediate_bytes);
            checks.expect(original > 0.0,
                          "Fig. 10a reference without intermediates");
            fused_fraction_ = std::max(
                fused_fraction_,
                static_cast<double>(
                    result.design.fusedIntermediateBytes()) /
                    original);
        }
    }

    Rep
    run(Tracing *tracing, Checks &checks) override
    {
        SpanRecorder *host = tracing ? &tracing->host : nullptr;
        Rep rep;
        std::vector<double> ttft, latency;
        std::vector<SloSample> slo;
        std::vector<double> accel_ttft, accel_decode, accel_tpj;
        double decode_ms = 0.0;
        double decode_tokens = 0.0;
        int64_t compiles = 0;
        int64_t runs = 0;

        for (size_t m = 0; m < configs_.size(); ++m) {
            runtime::LlmExecutor executor(configs_[m], hls::u55c());
            for (int64_t b : ladder_) {
                for (const auto &shapes :
                     {models::bucketedPrefillShapes(b, {}),
                      models::bucketedDecodeShapes(b, {})}) {
                    const auto &blk =
                        buildBlock(executor, shapes, tracing, checks);
                    ++rep.attempted;
                    if (blk.deadlocked())
                        ++rep.failed;
                }
            }
            for (size_t i = 0; i < points_[m].size(); ++i) {
                auto [in, out] = points_[m][i];
                runtime::LlmRunResult r;
                {
                    int64_t before = executor.compileCount();
                    double t0 = host ? host->now() : 0.0;
                    SpanRecorder::Scope span(host, "runtime.run");
                    r = executor.run(in, out);
                    if (tracing) {
                        int64_t compiled =
                            executor.compileCount() - before;
                        tracing->layer["runtime.compiles"] +=
                            static_cast<double>(compiled);
                        if (compiled > 0)
                            tracing->layer["runtime.block_miss_s"] +=
                                host->now() - t0;
                    }
                }
                ++rep.attempted;
                ++runs;
                if (r.deadlock) {
                    ++rep.failed;
                    continue;
                }
                ++rep.completed;
                ttft.push_back(r.ttft_ms);
                latency.push_back(r.total_latency_ms);
                slo.push_back({true, r.ttft_ms, r.decode_ms_per_token});
                decode_ms += r.decode_ms_per_token *
                             static_cast<double>(out);
                decode_tokens += static_cast<double>(out);
                if (i < kTable4.size()) {
                    accel_ttft.push_back(r.ttft_ms);
                    accel_decode.push_back(r.decode_ms_per_token);
                    accel_tpj.push_back(r.tokens_per_joule);
                }
            }
            compiles += executor.compileCount();
        }
        checks.expect(rep.failed == 0,
                      "a built block or a Table 4 run deadlocked");
        if (ttft.empty())
            return rep;

        rep.sim = {
            {"ttft_p50_ms", percentileNearestRank(ttft, 50.0)},
            {"ttft_p99_ms", percentileNearestRank(ttft, 99.0)},
            {"latency_p99_ms", percentileNearestRank(latency, 99.0)},
            {"tbt_mean_ms", decode_ms / decode_tokens},
            {"slo_attainment",
             sloAttainment(sloMet(slo, kSlo), runs)},
            {"accel.ttft_ms", geoMean(accel_ttft)},
            {"accel.decode_ms_per_token", geoMean(accel_decode)},
            {"accel.tokens_per_joule", geoMean(accel_tpj)},
            {"accel.fused_intermediate_fraction", fused_fraction_},
            {"compiles", static_cast<double>(compiles)},
            {"requests", static_cast<double>(ttft.size())},
        };
        if (tracing) {
            for (const char *name :
                 {"accel.ttft_ms", "accel.decode_ms_per_token",
                  "accel.tokens_per_joule",
                  "accel.fused_intermediate_fraction"})
                tracing->layer[name] = simValue(rep.sim, name);
            finishSimRates(*tracing);
        }
        return rep;
    }

  private:
    /** A request meets the SLO with its first token within 300 ms
     *  and at most 5.5 ms per output token. */
    static constexpr SloLimits kSlo{300.0, 5.5};

    std::vector<models::LlmConfig> configs_;
    std::vector<int64_t> ladder_;
    std::vector<std::vector<std::pair<int64_t, int64_t>>> points_;
    double fused_fraction_ = 0.0;
};

// ---------------------------------------------------------------
// Serving workloads
// ---------------------------------------------------------------

/** The generator's request stream, drained once per run so every
 *  repetition's records can be checked against what was sent. */
struct SentTrace
{
    std::vector<int64_t> input_len;
    std::vector<int64_t> output_len;
};

SentTrace
drainTrace(const serving::TraceOptions &options)
{
    serving::TraceGenerator gen(serving::TraceShape::Poisson, options);
    SentTrace sent;
    while (!gen.exhausted()) {
        serving::Request r = gen.next();
        ST_ASSERT(r.id == static_cast<int64_t>(sent.input_len.size()),
                  "generator ids are 0..n-1 in arrival order");
        sent.input_len.push_back(r.input_len);
        sent.output_len.push_back(r.output_len);
    }
    return sent;
}

/** Checks and end-to-end simulated metrics of one fleet run. */
Rep
summarizeFleet(const serving::FleetResult &result,
               const SentTrace &sent, const SloLimits &limits,
               Checks &checks)
{
    const serving::FleetMetrics &m = result.metrics;
    auto n = static_cast<int64_t>(sent.input_len.size());
    int64_t refused = m.rejected_queue_full + m.rejected_too_long +
                      m.rejected_drained;
    int64_t failed = refused + m.expired_deadline + m.requests_lost;

    Rep rep;
    rep.attempted = n;
    rep.failed = failed;
    rep.completed = m.completed;
    checks.expect(m.completed + failed == n,
                  "completed + rejected + expired + lost != attempted");
    checks.expect(!result.hit_step_limit, "the fleet hit its step limit");
    checks.expect(m.records_complete &&
                      static_cast<int64_t>(m.requests.size()) ==
                          m.completed,
                  "the fleet did not keep a record per completion");

    std::vector<char> seen(static_cast<size_t>(n), 0);
    std::vector<double> ttft, latency;
    std::vector<SloSample> slo;
    int64_t tokens = 0;
    int64_t gaps = 0;
    double decode_ms = 0.0;
    bool records_match = true;
    for (const auto &r : m.requests) {
        auto id = static_cast<size_t>(r.id);
        if (r.id < 0 || r.id >= n || seen[id] ||
            r.input_len != sent.input_len[id] ||
            r.output_len != sent.output_len[id]) {
            records_match = false;
            continue;
        }
        seen[id] = 1;
        tokens += r.output_len;
        ttft.push_back(r.ttftMs());
        latency.push_back(r.latencyMs());
        slo.push_back({true, r.ttftMs(), r.tbtMs()});
        decode_ms += r.finish_ms - r.first_token_ms;
        gaps += r.output_len - 1;
    }
    checks.expect(records_match, "a completion record does not match "
                                 "the request that was sent");
    checks.expect(tokens == m.total_output_tokens,
                  "total_output_tokens != sum of output_len over "
                  "completed requests");
    if (ttft.empty() || gaps == 0)
        return rep;

    rep.sim = {
        {"ttft_p50_ms", percentileNearestRank(ttft, 50.0)},
        {"ttft_p99_ms", percentileNearestRank(ttft, 99.0)},
        {"latency_p99_ms", percentileNearestRank(latency, 99.0)},
        {"tbt_mean_ms", decode_ms / static_cast<double>(gaps)},
        {"slo_attainment", sloAttainment(sloMet(slo, limits), n)},
        {"completed", static_cast<double>(m.completed)},
        {"steps", static_cast<double>(m.steps)},
        {"makespan_ms", m.makespan_ms},
        {"preemptions", static_cast<double>(m.preemptions)},
        {"failovers", static_cast<double>(m.failovers)},
        {"aborted_steps", static_cast<double>(m.aborted_steps)},
    };
    return rep;
}

/** Per-layer metrics of a traced fleet run: the TTFT split of
 *  every completed request (written as simulated spans), the
 *  replica, KV, weight-stream and fleet counters, and the cost
 *  oracle's calls. @p fleet_span is the host span around
 *  FleetScheduler::run. */
void
tracedFleetLayers(const serving::FleetResult &result,
                  const std::vector<TimedCostModel::Call> &calls,
                  int64_t fleet_span, Tracing &tracing, Checks &checks)
{
    const serving::FleetMetrics &fm = result.metrics;
    auto &layer = tracing.layer;

    // Steps in launch order: by start instant, then replica id
    // (the fleet launches idle replicas in id order each round).
    struct StepRef
    {
        const serving::StepRecord *record;
        int replica;
    };
    std::vector<StepRef> steps;
    for (size_t r = 0; r < result.replicas.size(); ++r)
        for (const auto &s : result.replicas[r].steps)
            steps.push_back({&s, static_cast<int>(r)});
    std::stable_sort(steps.begin(), steps.end(),
                     [](const StepRef &a, const StepRef &b) {
                         return a.record->start_ms < b.record->start_ms;
                     });
    // Aborted steps were costed but never recorded, so calls line
    // up with records only on a run without crashes; the crossing
    // stall is only nonzero on such runs (ExecutorCostModel).
    bool calls_aligned = calls.size() == steps.size();
    checks.expect(calls_aligned || fm.aborted_steps > 0,
                  "cost-oracle calls do not match the committed steps");
    checks.expect(static_cast<int64_t>(calls.size()) ==
                      fm.steps + fm.aborted_steps,
                  "cost-oracle calls != committed + aborted steps");

    // Map every completed request to the step that emitted its
    // first token: the earliest step running its prefill whose end
    // is the recorded first-token instant.
    std::map<int64_t, const serving::RequestMetrics *> by_id;
    for (const auto &r : fm.requests)
        by_id[r.id] = &r;
    std::map<int64_t, size_t> first_step;
    for (size_t i = 0; i < steps.size(); ++i) {
        const serving::StepRecord &s = *steps[i].record;
        for (int64_t id : s.prefill_ids) {
            auto it = by_id.find(id);
            if (it == by_id.end() || first_step.count(id))
                continue;
            if (s.start_ms + s.step_ms == it->second->first_token_ms)
                first_step[id] = i;
        }
    }
    checks.expect(first_step.size() == fm.requests.size(),
                  "a completed request has no first-token step");

    SpanRecorder &sim = tracing.sim;
    int32_t n_request = sim.intern("request.ttft");
    int32_t n_queue = sim.intern("serving.queue");
    int32_t n_wait = sim.intern("weights.wait");
    int32_t n_prefill = sim.intern("serving.prefill");
    double sum_queue = 0.0, sum_wait = 0.0, sum_prefill = 0.0,
           sum_cross = 0.0;
    bool split_ok = true;
    for (const auto &[id, i] : first_step) {
        const serving::RequestMetrics &r = *by_id[id];
        const serving::StepRecord &s = *steps[i].record;
        double queue = s.start_ms - r.arrival_ms;
        double wait = s.weights_wait_ms;
        double prefill = s.step_ms - wait;
        // The simulator's crossing stall sums stall cycles over the
        // block's components, so it overlaps the prefill compute
        // rather than adding to it: reported beside the split.
        double cross = calls_aligned ? calls[i].crossing_ms : 0.0;
        double ttft = r.ttftMs();
        split_ok = split_ok && queue >= 0.0 && wait >= 0.0 &&
                   cross >= 0.0 && prefill > 0.0 &&
                   std::abs(queue + wait + prefill - ttft) <=
                       1e-9 * std::max(1.0, ttft);
        if (calls_aligned) {
            // The step's cost is the oracle's answer plus the
            // weight wait (no slowdowns in these workloads).
            split_ok = split_ok &&
                       std::abs(prefill - calls[i].step_ms) <=
                           1e-9 * std::max(1.0, s.step_ms);
        }
        sum_queue += queue;
        sum_wait += wait;
        sum_prefill += prefill;
        sum_cross += cross;
        int64_t root = sim.add(n_request, r.arrival_ms,
                               r.first_token_ms, -1, id);
        sim.add(n_queue, r.arrival_ms, s.start_ms, root, id);
        if (wait > 0.0)
            sim.add(n_wait, s.start_ms, s.start_ms + wait, root, id);
        sim.add(n_prefill, s.start_ms + wait, r.first_token_ms, root, id);
    }
    checks.expect(split_ok, "a request's TTFT split does not sum to "
                            "its TTFT");
    double done = std::max<double>(1.0, static_cast<double>(
                                            first_step.size()));
    layer["serving.ttft_queue_ms"] = sum_queue / done;
    layer["serving.ttft_weights_wait_ms"] = sum_wait / done;
    layer["serving.ttft_prefill_ms"] = sum_prefill / done;
    layer["serving.ttft_crossing_stall_ms"] = sum_cross / done;

    // Replica-side counters, summed over the fleet.
    int64_t steps_total = 0, batched = 0, page_steps = 0;
    int64_t page_capacity = 0, hit = 0, miss = 0, peak_pages = 0;
    double busy = 0.0, overlap = 0.0;
    int64_t sketch_items = fm.latency_sketch.retainedItems();
    for (const auto &rr : result.replicas) {
        const serving::ServingMetrics &m = rr.metrics;
        steps_total += m.steps;
        batched += m.total_batched_seqs;
        busy += m.busy_ms;
        page_steps += m.page_step_sum;
        page_capacity += m.steps * m.pool_pages;
        hit += m.prefix_hit_pages;
        miss += m.prefix_miss_pages;
        peak_pages = std::max(peak_pages, m.peak_pages_active);
        overlap += m.weightOverlapFraction();
        sketch_items += m.latency_sketch.retainedItems() +
                        m.ttft_sketch.retainedItems();
    }
    auto replicas = static_cast<double>(result.replicas.size());
    layer["serving.steps"] = static_cast<double>(steps_total);
    layer["serving.mean_batch"] =
        steps_total > 0 ? static_cast<double>(batched) /
                              static_cast<double>(steps_total)
                        : 0.0;
    layer["serving.utilization"] =
        fm.makespan_ms > 0.0 ? busy / (replicas * fm.makespan_ms) : 0.0;
    layer["kv.preemptions"] = static_cast<double>(fm.preemptions);
    layer["kv.prefix_hit_rate"] =
        hit + miss > 0 ? static_cast<double>(hit) /
                             static_cast<double>(hit + miss)
                       : 0.0;
    layer["kv.page_util"] =
        page_capacity > 0 ? static_cast<double>(page_steps) /
                                static_cast<double>(page_capacity)
                          : 0.0;
    layer["kv.peak_pages_active"] = static_cast<double>(peak_pages);
    layer["weights.stall_ms"] = fm.weight_stall_ms;
    layer["weights.overlap_fraction"] = overlap / replicas;
    layer["fleet.steps"] = static_cast<double>(calls.size());
    layer["fleet.failovers"] = static_cast<double>(fm.failovers);
    layer["fleet.aborted_steps"] = static_cast<double>(fm.aborted_steps);
    layer["fleet.uptime_fraction"] = fm.uptimeFraction();
    layer["metrics.sketch_items"] = static_cast<double>(sketch_items);

    // The cost oracle, from the decorator's calls.
    std::vector<double> call_us;
    double call_s = 0.0;
    for (const auto &c : calls) {
        call_us.push_back(c.host_s * 1e6);
        call_s += c.host_s;
    }
    layer["runtime.step_calls"] = static_cast<double>(calls.size());
    layer["runtime.step_self_s"] = call_s;
    if (!call_us.empty()) {
        layer["runtime.step_us_p50"] =
            percentileNearestRank(call_us, 50.0);
        layer["runtime.step_us_p99"] =
            percentileNearestRank(call_us, 99.0);
    }
    const Span &run_span =
        tracing.host.spans()[static_cast<size_t>(fleet_span)];
    layer["fleet.loop_self_s"] = run_span.duration() - call_s -
                                 layer["serving.trace_gen_s"];
}

/** Shared shape of the serving workloads: a fleet driven from a
 *  seeded open-loop TraceGenerator. Subclasses fill in the trace,
 *  the fleet options, the cost oracle and the SLO limits. */
class FleetWorkload : public Workload
{
  public:
    Rep
    run(Tracing *tracing, Checks &checks) override
    {
        // Drained during the warm-up repetition, which the host
        // summary leaves out.
        if (sent_.input_len.empty())
            sent_ = drainTrace(trace_);
        serving::FleetResult result;
        int64_t fleet_span = -1;
        if (tracing) {
            {
                // Generator cost, measured on a twin of the trace
                // the fleet pulls from inside run().
                double t0 = tracing->host.now();
                SpanRecorder::Scope span(&tracing->host,
                                         "serving.trace_gen");
                (void)drainTrace(trace_);
                tracing->layer["serving.trace_gen_s"] +=
                    tracing->host.now() - t0;
            }
            serving::TraceGenerator gen(serving::TraceShape::Poisson,
                                        trace_);
            SpanRecorder::Scope span(&tracing->host, "fleet.run");
            fleet_span = span.id();
            result = fleet_->run(gen);
        } else {
            serving::TraceGenerator gen(serving::TraceShape::Poisson,
                                        trace_);
            result = fleet_->run(gen);
        }
        SpanRecorder *host = tracing ? &tracing->host : nullptr;
        SpanRecorder::Scope span(host, "perfbench.summarize");
        Rep rep = summarizeFleet(result, sent_, slo_, checks);
        afterRun(checks);
        if (tracing) {
            SpanRecorder::Scope attribute(host, "trace.attribute");
            tracedFleetLayers(result, timed_->calls(), fleet_span,
                              *tracing, checks);
        }
        // Freeing the records is part of every repetition's cost:
        // inside the span, so it is not left unattributed.
        result = serving::FleetResult{};
        return rep;
    }

  protected:
    /** Build the fleet over @p cost, through the timing decorator
     *  when traced. Traced fleets also switch on the program's
     *  recording surfaces: every step, and every request's record
     *  (which KeepRecords::Auto keeps anyway at these trace sizes;
     *  summarizeFleet checks that it did). */
    void
    buildFleet(serving::FleetOptions options,
               serving::StepCostModel &cost, Tracing *tracing)
    {
        if (tracing) {
            options.replica.record_steps = true;
            options.replica.metrics.keep_records =
                serving::MetricsOptions::KeepRecords::Always;
            timed_ = std::make_unique<TimedCostModel>(cost,
                                                      tracing->host);
        }
        fleet_ = std::make_unique<serving::FleetScheduler>(
            std::move(options),
            timed_ ? static_cast<serving::StepCostModel &>(*timed_)
                   : cost);
    }

    /** Drop the fleet and its decorator before the cost oracle
     *  they refer to is replaced. */
    void
    releaseFleet()
    {
        fleet_.reset();
        timed_.reset();
    }

    /** Extra checks after each repetition. */
    virtual void afterRun(Checks &) {}

    serving::TraceOptions trace_;
    SloLimits slo_;

  private:
    SentTrace sent_;
    std::unique_ptr<TimedCostModel> timed_;
    std::unique_ptr<serving::FleetScheduler> fleet_;
};

/** GPT-2 on the U55C through ExecutorCostModel: two replicas,
 *  paged KV, shared system prompts, a cold start from gp3 with
 *  compute/stream overlap. Arrivals every 220 ms on average
 *  (4.5 req/s) load the fleet to about two thirds of the 6.75 req/s
 *  it serves saturated; at 80% the simulated tails swing by a
 *  quarter between seeds (NOTES.md). */
class Gpt2Serve : public FleetWorkload
{
  public:
    explicit Gpt2Serve(uint64_t seed)
    {
        trace_.num_requests = 40000;
        trace_.seed = seed;
        trace_.mean_interarrival_ms = 220.0;
        trace_.min_input_len = 8;
        trace_.max_input_len = 192;
        trace_.min_output_len = 4;
        trace_.max_output_len = 64;
        trace_.num_prefix_groups = 4;
        trace_.shared_prefix_len = 48;
        slo_ = {500.0, 25.0};
    }

    // Both phases reach the shared thread pool (simulateAll and
    // WeightStreamer::plan in set-up, a fan-out per LlmExecutor::step
    // in the timed phase) but stay pinned: unpinned, five 25 s runs
    // on a shared 4-vCPU VM read build_s 2.3-6.1 s and setup_s
    // 74-103 ms (NOTES.md). So the pool runs on one CPU here.

    /** A fresh executor warmed on every prefill and decode bucket
     *  the trace can reach, the gp3 weight-stream plan, and the
     *  fleet. */
    void
    setup(Tracing *tracing, Checks &checks) override
    {
        releaseFleet();
        cost_.reset();
        executor_ = std::make_unique<runtime::LlmExecutor>(
            models::gpt2Config(), hls::u55c());
        serving::FleetOptions options;
        options.num_replicas = 2;
        options.replica.max_batch = 8;
        options.replica.kv_budget_tokens = 1024;
        int64_t max_context = trace_.shared_prefix_len +
                              trace_.max_input_len +
                              trace_.max_output_len - 1;
        int64_t top =
            models::bucketLen(max_context, options.replica.buckets);
        for (int64_t b :
             models::bucketBoundaries(options.replica.buckets)) {
            if (b > top)
                break;
            for (const auto &shapes :
                 {models::bucketedPrefillShapes(
                      b, options.replica.buckets),
                  models::bucketedDecodeShapes(
                      b, options.replica.buckets)}) {
                const auto &blk =
                    buildBlock(*executor_, shapes, tracing, checks);
                checks.expect(!blk.deadlocked(),
                              "a warmed GPT-2 block deadlocked");
            }
        }
        compiles_after_setup_ = executor_->compileCount();

        auto artifact =
            serving::ModelArtifact::fromConfig(executor_->config());
        {
            double t0 = tracing ? tracing->host.now() : 0.0;
            SpanRecorder::Scope span(tracing ? &tracing->host : nullptr,
                                     "weights.plan");
            options.replica.cold_start.plan =
                serving::WeightStreamer(serving::WeightStreamOptions{})
                    .plan(artifact);
            if (tracing)
                tracing->layer["weights.plan_s"] +=
                    tracing->host.now() - t0;
        }
        options.replica.cold_start.overlap = true;
        if (tracing)
            finishSimRates(*tracing);

        cost_ = std::make_unique<serving::ExecutorCostModel>(*executor_);
        buildFleet(std::move(options), *cost_, tracing);
    }

  protected:
    void
    afterRun(Checks &checks) override
    {
        checks.expect(executor_->compileCount() == compiles_after_setup_,
                      "serving compiled a block after setup");
        checks.expect(!cost_->sawDeadlock(),
                      "a costed GPT-2 block deadlocked");
    }

  private:
    std::unique_ptr<runtime::LlmExecutor> executor_;
    std::unique_ptr<serving::ExecutorCostModel> cost_;
    int64_t compiles_after_setup_ = 0;
};

/** The million-request sweep shape on the analytic cost model:
 *  four replicas, Poisson arrivals every 3.3 ms (303 req/s, about
 *  65% of the 466 req/s the fleet serves saturated). With
 *  @p outage every replica crashes at 20% of the trace span and
 *  recovers at 50%, leaving a deep redispatch backlog. */
class FleetSweep : public FleetWorkload
{
  public:
    FleetSweep(uint64_t seed, bool outage) : outage_(outage)
    {
        trace_.num_requests = outage ? 10000 : 100000;
        trace_.seed = seed;
        trace_.mean_interarrival_ms = 3.3;
        trace_.min_input_len = 4;
        trace_.max_input_len = 64;
        trace_.min_output_len = 1;
        trace_.max_output_len = 16;
        slo_ = outage ? SloLimits{1000.0, 5.0} : SloLimits{6.0, 2.5};
    }

    void
    setup(Tracing *tracing, Checks &) override
    {
        releaseFleet();
        serving::FleetOptions options;
        options.num_replicas = 4;
        options.replica.max_batch = 8;
        options.replica.kv_budget_tokens = 4096;
        options.replica.max_steps = std::numeric_limits<int64_t>::max();
        if (outage_) {
            double span = static_cast<double>(trace_.num_requests) *
                          trace_.mean_interarrival_ms;
            for (int r = 0; r < options.num_replicas; ++r) {
                options.faults.events.push_back(
                    {0.2 * span, r, serving::FaultKind::Crash, 1.0});
                options.faults.events.push_back(
                    {0.5 * span, r, serving::FaultKind::Recover, 1.0});
            }
            // One crash per replica evacuates a request at most
            // once, so a single retry loses nothing.
            options.max_retries = 1;
        }
        cost_ = std::make_unique<serving::AnalyticCostModel>();
        buildFleet(std::move(options), *cost_, tracing);
    }

  private:
    bool outage_;
    std::unique_ptr<serving::AnalyticCostModel> cost_;
};

std::unique_ptr<Workload>
makeWorkload(const std::string &name, uint64_t seed)
{
    if (name == "model_zoo_build")
        return std::make_unique<ModelZooBuild>(seed);
    if (name == "gpt2_serve")
        return std::make_unique<Gpt2Serve>(seed);
    if (name == "fleet_sweep_calm")
        return std::make_unique<FleetSweep>(seed, false);
    if (name == "fleet_outage")
        return std::make_unique<FleetSweep>(seed, true);
    ST_FATAL("unknown workload " + name);
}

} // namespace

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"setup_s", "s"},         {"build_s", "s"},
        {"host_req_per_s", "1/s"}, {"peak_rss_mb", "MiB"},
        {"ttft_p50_ms", "ms"},    {"ttft_p99_ms", "ms"},
        {"latency_p99_ms", "ms"}, {"tbt_mean_ms", "ms"},
        {"slo_attainment", "fraction"},
    };
    return specs;
}

const std::vector<MetricSpec> &
perLayerMetrics()
{
    static const std::vector<MetricSpec> specs = [] {
        std::vector<MetricSpec> s;
        compiler::Pipeline pipeline = compiler::defaultPipeline();
        for (const auto &stage : pipeline.stages())
            s.push_back({"compiler." + stage.name + "_s", "s"});
        std::vector<MetricSpec> rest = {
            {"compiler.fused_groups", "count"},
            {"compiler.clamped_fifos", "count"},
            {"compiler.crossings", "count"},
            {"sim.prefill_host_s", "s"},
            {"sim.decode_host_s", "s"},
            {"sim.prefill_cycles_per_s", "1/s"},
            {"sim.decode_cycles_per_s", "1/s"},
            {"sim.events", "count"},
            {"sim.stall_cycles", "cycles"},
            {"sim.crossing_stall_cycles", "cycles"},
            {"runtime.block_miss_s", "s"},
            {"runtime.compiles", "count"},
            {"runtime.step_calls", "count"},
            {"runtime.step_self_s", "s"},
            {"runtime.step_us_p50", "us"},
            {"runtime.step_us_p99", "us"},
            {"serving.trace_gen_s", "s"},
            {"serving.steps", "count"},
            {"serving.mean_batch", "seqs"},
            {"serving.utilization", "fraction"},
            {"serving.ttft_queue_ms", "ms"},
            {"serving.ttft_weights_wait_ms", "ms"},
            {"serving.ttft_prefill_ms", "ms"},
            {"serving.ttft_crossing_stall_ms", "ms"},
            {"kv.preemptions", "count"},
            {"kv.prefix_hit_rate", "fraction"},
            {"kv.page_util", "fraction"},
            {"kv.peak_pages_active", "pages"},
            {"weights.plan_s", "s"},
            {"weights.stall_ms", "ms"},
            {"weights.overlap_fraction", "fraction"},
            {"fleet.loop_self_s", "s"},
            {"fleet.steps", "count"},
            {"fleet.failovers", "count"},
            {"fleet.aborted_steps", "count"},
            {"fleet.uptime_fraction", "fraction"},
            {"metrics.sketch_items", "count"},
            {"accel.ttft_ms", "ms"},
            {"accel.decode_ms_per_token", "ms"},
            {"accel.tokens_per_joule", "tok/J"},
            {"accel.fused_intermediate_fraction", "fraction"},
            {"trace.overhead_s", "s"},
            {"trace.unattributed_s", "s"},
        };
        s.insert(s.end(), rest.begin(), rest.end());
        return s;
    }();
    return specs;
}

std::vector<std::string>
workloadNames()
{
    return {"model_zoo_build", "gpt2_serve", "fleet_sweep_calm",
            "fleet_outage"};
}

Outcome
runWorkload(const RunOptions &options)
{
    std::unique_ptr<Workload> w =
        makeWorkload(options.workload, options.seed);
    Checks checks;
    Outcome out;
    out.context = options.context;

    out.context.pinned_setup = w->pinSetup();
    out.context.pinned_timed = w->pinRuns();
    const std::vector<int> &cpus = out.context.allowed_cpus;
    auto place = [&](bool pin, size_t at) {
        if (cpus.empty())
            return;
        bool ok = pin ? pinAllThreads({cpus[at % cpus.size()]})
                      : pinAllThreads(cpus);
        checks.expect(ok, "cannot set the run's CPU affinity");
    };
    // The slowdown of the CPUs a phase placed by place(pin, at) runs
    // on: that CPU's, or the mean over every allowed CPU, each
    // probed in turn.
    auto slowdown = [&](bool pin, size_t at) {
        if (pin || cpus.empty())
            return referenceSlowdown(kProbeCalls);
        double sum = 0.0;
        for (size_t i = 0; i < cpus.size(); ++i) {
            place(true, i);
            sum += referenceSlowdown(kProbeCalls);
        }
        place(false, at);
        return sum / static_cast<double>(cpus.size());
    };

    // Host times as measured (raw) and divided by the slowdown
    // probed right before and after each (scaled).
    std::vector<double> setup_raw, setup_s, rep_raw, rep_s, slow;
    int64_t setups = 0;
    Rep first;
    auto begin = Clock::now();
    for (size_t at = 0;
         static_cast<int>(rep_s.size()) < kMaxReps &&
         (static_cast<int>(rep_s.size()) < kMinReps ||
          secondsSince(begin) < options.seconds);
         ++at) {
        place(w->pinSetup(), at);
        double before = slowdown(w->pinSetup(), at);
        int64_t calls = 0;
        auto s0 = Clock::now();
        do {
            w->setup(nullptr, checks);
            ++calls;
        } while (secondsSince(s0) < kSetupSampleSeconds);
        setup_raw.push_back(secondsSince(s0) /
                            static_cast<double>(calls));
        double after = slowdown(w->pinSetup(), at);
        setup_s.push_back(
            atReferenceSpeed(setup_raw.back(), before, after));
        setups += calls;

        if (w->pinRuns() != w->pinSetup()) {
            place(w->pinRuns(), at);
            after = slowdown(w->pinRuns(), at);
        }
        before = after;
        auto t0 = Clock::now();
        Rep rep = w->run(nullptr, checks);
        rep_raw.push_back(secondsSince(t0));
        after = slowdown(w->pinRuns(), at);
        rep_s.push_back(
            atReferenceSpeed(rep_raw.back(), before, after));
        slow.push_back(rep_raw.back() / rep_s.back());
        out.attempted += rep.attempted;
        out.failed += rep.failed;
        if (rep_s.size() == 1)
            first = rep;
        else
            checks.expect(rep.sim == first.sim,
                          "a simulated metric changed between "
                          "repetitions");
    }
    // The first repetition warms allocator pools and caches and is
    // left out of the host-time summary (it is still checked).
    double setup_median = median(setup_s);
    double rep_host_s = interquartileMean(
        std::vector<double>(rep_s.begin() + 1, rep_s.end()));
    double raw_setup = median(setup_raw);
    double raw_rep = interquartileMean(
        std::vector<double>(rep_raw.begin() + 1, rep_raw.end()));
    checks.expect(!first.sim.empty(), "the timed phase completed "
                                      "nothing to measure");

    out.notes.push_back(fmt("setup: %.0f samples of %.0f set-ups in "
                            "all, median %.9f s per set-up (scaled)",
                            static_cast<double>(setup_s.size()),
                            static_cast<double>(setups), setup_median));
    out.notes.push_back(
        fmt("timed: %.0f reps, interquartile mean %.6f s, min %.6f s "
            "(scaled to the reference speed)",
            rep_s.size(), rep_host_s,
            *std::min_element(rep_s.begin(), rep_s.end())));
    out.notes.push_back(fmt("as measured: median set-up %.9f s, "
                            "interquartile mean rep %.6f s; median "
                            "slowdown %.3f",
                            raw_setup, raw_rep, median(slow)));
    std::string reps = "timed reps, as measured / slowdown:";
    for (size_t i = 0; i < rep_s.size(); ++i)
        reps += fmt(" %.4f/%.3f", rep_raw[i], slow[i]);
    out.notes.push_back(reps);
    for (const auto &[name, v] : first.sim)
        out.notes.push_back("sim " + name + " = " + fmt("%.17g", v));

    if (!options.trace && !first.sim.empty()) {
        std::map<std::string, double> values = {
            {"setup_s", setup_median},
            {"build_s", rep_host_s},
            {"host_req_per_s",
             static_cast<double>(first.completed) / rep_host_s},
            {"peak_rss_mb", peakRssMb()},
        };
        for (const char *name :
             {"ttft_p50_ms", "ttft_p99_ms", "latency_p99_ms",
              "tbt_mean_ms", "slo_attainment"})
            values[name] = simValue(first.sim, name);
        for (const auto &spec : endToEndMetrics())
            out.metrics.push_back(
                {spec.name, values.at(spec.name), spec.unit});
    } else if (options.trace) {
        bool pin = w->pinSetup() && w->pinRuns();
        place(pin, 0);
        double before = slowdown(pin, 0);
        Tracing tracing;
        int64_t root = tracing.host.open("traced_run");
        int64_t setup_span = -1;
        int64_t timed_span = -1;
        {
            SpanRecorder::Scope span(&tracing.host, "setup");
            setup_span = span.id();
            w->setup(&tracing, checks);
        }
        Rep traced;
        {
            SpanRecorder::Scope span(&tracing.host, "timed");
            timed_span = span.id();
            traced = w->run(&tracing, checks);
        }
        tracing.host.close(root);
        double after = slowdown(pin, 0);
        out.attempted += traced.attempted;
        out.failed += traced.failed;
        checks.expect(traced.sim == first.sim,
                      "a simulated metric differs between the traced "
                      "and the untraced run");

        // Reconcile. Layer spans are every span below the root and
        // its two phase spans, whose self time is the unattributed
        // time. The traced run, less the work only it does, must
        // match the untraced set-up plus repetition; the difference
        // with that work left in is the tracing overhead. Both
        // sides are at the reference speed.
        const SpanRecorder &rec = tracing.host;
        std::vector<double> self = rec.selfTimes();
        bool non_negative = true;
        for (double s : self)
            non_negative = non_negative && s >= -1e-6;
        checks.expect(non_negative, "a span has negative self time");
        double wall = rec.spans()[static_cast<size_t>(root)].duration();
        double unattributed = self[static_cast<size_t>(root)] +
                              self[static_cast<size_t>(setup_span)] +
                              self[static_cast<size_t>(timed_span)];
        double traced_only = 0.0;
        for (const Span &span : rec.spans())
            for (const char *name : kTracedOnlySpans)
                if (rec.names()[static_cast<size_t>(span.name)] == name)
                    traced_only += span.duration();
        double untraced = setup_median + rep_host_s;
        double scaled_wall = atReferenceSpeed(wall, before, after);
        double ratio =
            atReferenceSpeed(wall - traced_only, before, after) / untraced;
        checks.expect(unattributed <= kMaxUnattributed * wall,
                      fmt("%.1f%% of the traced run lies outside every "
                          "layer span",
                          100.0 * unattributed / wall));
        checks.expect(ratio >= kTracedRatioMin &&
                          ratio <= kTracedRatioMax,
                      fmt("the traced run less its own work takes "
                          "%.2fx the untraced set-up + repetition",
                          ratio));
        double overhead = scaled_wall - untraced;
        tracing.layer["trace.overhead_s"] = overhead;
        tracing.layer["trace.unattributed_s"] = unattributed;
        out.notes.push_back(fmt("traced: wall %.6f s as measured, "
                                "%.6f s scaled; traced-only work "
                                "%.6f s as measured",
                                wall, scaled_wall, traced_only));
        out.notes.push_back(fmt("traced: untraced setup+rep %.6f s, "
                                "overhead %.6f s (both scaled), "
                                "ratio %.3f",
                                untraced, overhead, ratio));
        out.notes.push_back(
            fmt("traced: unattributed %.6f s as measured", unattributed));
        for (const auto &[name, s] : tracing.host.selfByName())
            out.notes.push_back("self " + name + " = " + fmt("%.6f s", s));

        for (const auto &[name, v] : tracing.layer) {
            bool known = false;
            for (const auto &spec : perLayerMetrics())
                known = known || spec.name == name;
            checks.expect(known, "unlisted per-layer metric " + name);
        }
        for (const auto &spec : perLayerMetrics()) {
            auto it = tracing.layer.find(spec.name);
            out.metrics.push_back(
                {spec.name, it == tracing.layer.end() ? 0.0 : it->second,
                 spec.unit});
        }
        if (!options.spans_path.empty() &&
            !writeSpans(options.spans_path, contextJson(out.context),
                        {&tracing.host, &tracing.sim}))
            checks.expect(false, "cannot write " + options.spans_path);
    }

    out.failures = checks.failures;
    out.correct = checks.failures.empty();
    return out;
}

} // namespace perfbench
