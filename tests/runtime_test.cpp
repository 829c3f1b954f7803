/** @file Unit tests for the host runtime executor. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <random>
#include <thread>

#include "support/error.h"

#include "models/bucketing.h"
#include "runtime/executor.h"

using namespace streamtensor;

namespace {

runtime::LlmExecutor &
gpt2Executor()
{
    static runtime::LlmExecutor executor(models::gpt2Config(),
                                         hls::u55c());
    return executor;
}

uint64_t
bitsOf(double v)
{
    uint64_t b = 0;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

/** Every StepResult field as raw bits, so a comparison catches a
 *  last-ulp drift that EXPECT_DOUBLE_EQ forgives. */
std::vector<uint64_t>
stepBits(const runtime::StepResult &r)
{
    return {bitsOf(r.step_ms), bitsOf(r.crossing_stall_ms),
            static_cast<uint64_t>(r.crossings),
            static_cast<uint64_t>(r.kv_tokens),
            static_cast<uint64_t>(r.deadlock)};
}

/** Step cost summed straight from each block's per-group
 *  SimResults with sim::batchedCycles, merging shapes in map
 *  order; the invocation overhead mirrors executor.cpp. Looks
 *  blocks up with block(), so @p executor must be warm on every
 *  shape of @p groups. */
runtime::StepResult
referenceStep(runtime::LlmExecutor &executor,
              const std::vector<runtime::StepGroup> &groups)
{
    std::map<models::BlockShapes, int64_t> merged;
    int64_t total_seqs = 0;
    for (const auto &g : groups) {
        merged[g.shapes] += g.count;
        total_seqs += g.count;
    }
    const auto &platform = executor.platform();
    double freq_hz = platform.freq_mhz * 1e6;
    double overhead_ms =
        platform.invocation_overhead_us *
        (0.55 + 0.45 / (1.0 + total_seqs / 96.0)) / 1e3;
    int64_t layers = executor.config().layers;
    runtime::StepResult r;
    for (const auto &[shapes, count] : merged) {
        const auto &blk = executor.block(shapes);
        double cycles = 0.0;
        double stall = 0.0;
        for (const auto &s : blk.sims) {
            cycles += sim::batchedCycles(s, count);
            stall += s.crossing_stall_cycles;
            r.crossings += s.crossing_channels;
            r.deadlock = r.deadlock || s.deadlock || s.timed_out;
        }
        r.kv_tokens += count * shapes.kv_len;
        r.step_ms += layers * (cycles / freq_hz * 1e3 + overhead_ms);
        r.crossing_stall_ms += layers * stall / freq_hz * 1e3;
    }
    return r;
}

/** Shapes the randomized step tests draw from: prefill and decode,
 *  with two decode shapes sharing a kv_len with a prefill one. */
std::vector<models::BlockShapes>
stepShapePool()
{
    return {models::prefillShapes(16), models::prefillShapes(48),
            models::decodeShapes(48), models::decodeShapes(96),
            models::decodeShapes(16)};
}

/** A seeded random step over stepShapePool(): 1-6 groups (shapes
 *  may repeat), counts 1-8. */
std::vector<runtime::StepGroup>
randomStep(std::mt19937_64 &rng)
{
    auto pool = stepShapePool();
    std::uniform_int_distribution<size_t> pick(0, pool.size() - 1);
    std::uniform_int_distribution<int64_t> groups(1, 6);
    std::uniform_int_distribution<int64_t> count(1, 8);
    std::vector<runtime::StepGroup> step;
    for (int64_t n = groups(rng); n > 0; --n)
        step.push_back({pool[pick(rng)], count(rng)});
    return step;
}

} // namespace

TEST(Executor, RunProducesFiniteMetrics)
{
    auto r = gpt2Executor().run(32, 32);
    EXPECT_GT(r.ttft_ms, 0.0);
    EXPECT_GT(r.decode_ms_per_token, 0.0);
    EXPECT_GT(r.tokens_per_s, 0.0);
    EXPECT_GT(r.energy_j, 0.0);
    EXPECT_GT(r.tokens_per_joule, 0.0);
    EXPECT_FALSE(r.deadlock);
}

TEST(Executor, LatencyDecomposes)
{
    auto r = gpt2Executor().run(32, 64);
    EXPECT_NEAR(r.total_latency_ms,
                r.ttft_ms + 64 * r.decode_ms_per_token, 1e-6);
    EXPECT_NEAR(r.tokens_per_s,
                64.0 / (64 * r.decode_ms_per_token) * 1e3, 1e-6);
}

TEST(Executor, TtftScalesWithInputLength)
{
    auto r32 = gpt2Executor().run(32, 32);
    auto r128 = gpt2Executor().run(128, 32);
    // Roughly linear: 4x input within [2.5x, 6x].
    double ratio = r128.ttft_ms / r32.ttft_ms;
    EXPECT_GT(ratio, 2.5);
    EXPECT_LT(ratio, 6.0);
}

TEST(Executor, BlockCacheReusesCompiles)
{
    runtime::LlmExecutor executor(models::gpt2Config(),
                                  hls::u55c());
    const auto &a = executor.block(models::decodeShapes(48));
    const auto &b = executor.block(models::decodeShapes(48));
    EXPECT_EQ(&a, &b);
    const auto &c = executor.block(models::decodeShapes(96));
    EXPECT_NE(&a, &c);
}

TEST(Executor, PowerWithinPlatformEnvelope)
{
    auto r = gpt2Executor().run(64, 64);
    EXPECT_GT(r.avg_power_w,
              hls::u55c().tdp_watts *
                  hls::u55c().idle_power_fraction * 0.99);
    EXPECT_LE(r.avg_power_w, hls::u55c().tdp_watts);
}

TEST(Executor, AllModelsRunDecodeWithoutDeadlock)
{
    for (const auto &cfg : models::allConfigs()) {
        runtime::LlmExecutor executor(cfg, hls::u55c());
        auto r = executor.run(32, 32);
        EXPECT_FALSE(r.deadlock) << cfg.name;
        EXPECT_GT(r.tokens_per_s, 0.0) << cfg.name;
    }
}

TEST(Executor, DeterministicAcrossRuns)
{
    runtime::LlmExecutor a(models::gpt2Config(), hls::u55c());
    runtime::LlmExecutor b(models::gpt2Config(), hls::u55c());
    auto ra = a.run(32, 32);
    auto rb = b.run(32, 32);
    EXPECT_DOUBLE_EQ(ra.total_latency_ms, rb.total_latency_ms);
    EXPECT_DOUBLE_EQ(ra.ttft_ms, rb.ttft_ms);
}

TEST(Executor, RejectsBadRequests)
{
    EXPECT_THROW(gpt2Executor().run(0, 8), FatalError);
    EXPECT_THROW(gpt2Executor().run(8, 0), FatalError);
}

TEST(Executor, CacheKeyedByBlockShapesNotLengthPair)
{
    // Prefill {48, 48} and decode {1, 48} share a kv_len but are
    // distinct shapes and must compile separately.
    runtime::LlmExecutor executor(models::gpt2Config(),
                                  hls::u55c());
    const auto &prefill =
        executor.block(models::prefillShapes(48));
    const auto &decode = executor.block(models::decodeShapes(48));
    EXPECT_NE(&prefill, &decode);
    EXPECT_EQ(executor.compileCount(), 2);
}

TEST(Executor, RequestsInSameBucketCompileExactlyOnce)
{
    // Serving regression: two requests whose lengths land in the
    // same buckets must hit one compiled block. Inputs 9 and 12
    // prefill-bucket to 16 and every decode context (11..15)
    // buckets to 16 too, so the second request adds zero
    // compiles.
    models::BucketPolicy buckets;
    runtime::LlmExecutor executor(models::gpt2Config(),
                                  hls::u55c());
    auto serveOnce = [&](int64_t input_len, int64_t output_len) {
        (void)executor.step(
            {{models::bucketedPrefillShapes(input_len, buckets),
              1}});
        for (int64_t t = 1; t < output_len; ++t)
            (void)executor.step(
                {{models::bucketedDecodeShapes(input_len + t + 1,
                                               buckets),
                  1}});
    };
    serveOnce(9, 3);
    int64_t compiles_after_first = executor.compileCount();
    EXPECT_EQ(compiles_after_first, 2); // one prefill, one decode
    serveOnce(12, 3);
    EXPECT_EQ(executor.compileCount(), compiles_after_first);
}

TEST(Executor, StepCostsBatchedGroups)
{
    runtime::LlmExecutor executor(models::gpt2Config(),
                                  hls::u55c());
    auto single = executor.step({{models::decodeShapes(96), 1}});
    auto batched = executor.step({{models::decodeShapes(96), 4}});
    EXPECT_FALSE(single.deadlock);
    EXPECT_GT(single.step_ms, 0.0);
    // Batching amortises weight streaming: more than one
    // sequence's cost, well under four serial passes.
    EXPECT_GT(batched.step_ms, single.step_ms);
    EXPECT_LT(batched.step_ms, 4.0 * single.step_ms);
}

TEST(Executor, StepSumsShapeGroups)
{
    runtime::LlmExecutor executor(models::gpt2Config(),
                                  hls::u55c());
    auto decode = executor.step({{models::decodeShapes(96), 2}});
    auto prefill =
        executor.step({{models::prefillShapes(32), 1}});
    auto mixed =
        executor.step({{models::decodeShapes(96), 2},
                       {models::prefillShapes(32), 1}});
    EXPECT_GT(mixed.step_ms, decode.step_ms);
    EXPECT_GT(mixed.step_ms, prefill.step_ms);
    // Overhead amortisation makes the combined step cheaper than
    // the two separate steps.
    EXPECT_LT(mixed.step_ms, decode.step_ms + prefill.step_ms);
}

TEST(Executor, StepIsDeterministic)
{
    runtime::LlmExecutor a(models::gpt2Config(), hls::u55c());
    runtime::LlmExecutor b(models::gpt2Config(), hls::u55c());
    std::vector<runtime::StepGroup> groups = {
        {models::decodeShapes(64), 3},
        {models::prefillShapes(32), 1}};
    EXPECT_DOUBLE_EQ(a.step(groups).step_ms,
                     b.step(groups).step_ms);
}

TEST(Executor, StepMergesDuplicateShapeGroups)
{
    runtime::LlmExecutor executor(models::gpt2Config(),
                                  hls::u55c());
    auto split = executor.step({{models::decodeShapes(96), 1},
                                {models::decodeShapes(96), 1}});
    auto merged = executor.step({{models::decodeShapes(96), 2}});
    EXPECT_DOUBLE_EQ(split.step_ms, merged.step_ms);
    EXPECT_EQ(executor.compileCount(), 1);
}

TEST(Executor, StepRejectsMalformedGroups)
{
    runtime::LlmExecutor executor(models::gpt2Config(),
                                  hls::u55c());
    EXPECT_THROW(executor.step({}), FatalError);
    EXPECT_THROW(
        executor.step({{models::decodeShapes(48), 0}}),
        FatalError);
}

TEST(CompiledBlock, BatchedCyclesGrowLinearlyAtSteadyInterval)
{
    runtime::LlmExecutor executor(models::gpt2Config(),
                                  hls::u55c());
    const auto &blk = executor.block(models::decodeShapes(48));
    double b1 = blk.batchedCycles(1);
    double b2 = blk.batchedCycles(2);
    double b3 = blk.batchedCycles(3);
    EXPECT_DOUBLE_EQ(b1, blk.totalCycles());
    EXPECT_GT(b2, b1);
    // Marginal cost of each extra member is one steady interval.
    EXPECT_DOUBLE_EQ(b3 - b2, b2 - b1);
    // The steady interval never exceeds the full fill latency.
    EXPECT_LE(b2 - b1, b1);
    for (const auto &s : blk.sims) {
        double interval = sim::steadyIntervalCycles(s);
        EXPECT_GT(interval, 0.0);
        EXPECT_LE(interval, s.cycles);
    }
    // The intervals block() cached are the simulator's own, and
    // the cached sum matches sim::batchedCycles bit for bit.
    ASSERT_EQ(blk.steady_intervals.size(), blk.sims.size());
    for (size_t g = 0; g < blk.sims.size(); ++g)
        EXPECT_EQ(bitsOf(blk.steady_intervals[g]),
                  bitsOf(sim::steadyIntervalCycles(blk.sims[g])))
            << "group " << g;
    for (int64_t batch = 1; batch <= 8; ++batch) {
        double expect = 0.0;
        for (const auto &s : blk.sims)
            expect += sim::batchedCycles(s, batch);
        EXPECT_EQ(bitsOf(blk.batchedCycles(batch)), bitsOf(expect))
            << "batch " << batch;
    }
    EXPECT_THROW(blk.batchedCycles(0), FatalError);
}

TEST(CompiledBlock, AggregatesGroupCycles)
{
    runtime::LlmExecutor executor(models::gpt2Config(),
                                  hls::u55c());
    const auto &blk = executor.block(models::decodeShapes(48));
    EXPECT_GT(blk.totalCycles(), 0.0);
    EXPECT_FALSE(blk.deadlocked());
    EXPECT_EQ(blk.sims.size(),
              static_cast<size_t>(
                  blk.compile.design.components.numGroups()));
}

TEST(Executor, WarmRaceCompilesOnce)
{
    // Two threads warming the same bucketed shape concurrently
    // must produce exactly one compile: the second caller blocks
    // on the in-flight entry instead of compiling a duplicate
    // (the dedupe documented on block()).
    runtime::LlmExecutor executor(models::gpt2Config(),
                                  hls::u55c());
    auto shapes = models::decodeShapes(64);
    const runtime::CompiledBlock *a = nullptr;
    const runtime::CompiledBlock *b = nullptr;
    std::thread t1([&] { a = &executor.block(shapes); });
    std::thread t2([&] { b = &executor.block(shapes); });
    t1.join();
    t2.join();
    EXPECT_EQ(executor.compileCount(), 1);
    // Both callers see the same cached entry.
    EXPECT_EQ(a, b);
    // A third call is a pure cache hit.
    executor.block(shapes);
    EXPECT_EQ(executor.compileCount(), 1);
}

TEST(Executor, StepHitsMatchMissesBitForBit)
{
    // A cold executor compiles each step's shapes on the pool; a
    // warm one only looks them up. Both must cost every step with
    // the same bits, whatever the group order, and match the
    // reference summed from the simulator's per-group results.
    runtime::LlmExecutor warm(models::gpt2Config(), hls::u55c());
    for (const auto &shapes : stepShapePool())
        (void)warm.block(shapes);
    int64_t warm_compiles = warm.compileCount();

    std::mt19937_64 rng(20251018);
    for (int trial = 0; trial < 24; ++trial) {
        auto groups = randomStep(rng);
        auto shuffled = groups;
        std::shuffle(shuffled.begin(), shuffled.end(), rng);

        runtime::LlmExecutor cold(models::gpt2Config(),
                                  hls::u55c());
        auto miss = stepBits(cold.step(groups));
        EXPECT_GT(cold.compileCount(), 0) << "trial " << trial;
        auto hit = stepBits(warm.step(shuffled));
        auto expect = stepBits(referenceStep(warm, groups));
        EXPECT_EQ(miss, hit) << "trial " << trial;
        EXPECT_EQ(hit, expect) << "trial " << trial;
    }
    EXPECT_EQ(warm.compileCount(), warm_compiles);
}

TEST(Executor, StepCompilesOnlyItsMisses)
{
    runtime::LlmExecutor executor(models::gpt2Config(),
                                  hls::u55c());
    (void)executor.step({{models::decodeShapes(64), 1}});
    ASSERT_EQ(executor.compileCount(), 1);
    std::vector<runtime::StepGroup> groups = {
        {models::decodeShapes(64), 2},
        {models::prefillShapes(32), 1},
        {models::decodeShapes(128), 3}};
    auto first = executor.step(groups);
    EXPECT_EQ(executor.compileCount(), 3);
    auto again = executor.step(groups);
    EXPECT_EQ(executor.compileCount(), 3);
    EXPECT_EQ(stepBits(first), stepBits(again));
}

TEST(Executor, ConcurrentHitStepsMatchSerial)
{
    runtime::LlmExecutor executor(models::gpt2Config(),
                                  hls::u55c());
    for (const auto &shapes : stepShapePool())
        (void)executor.block(shapes);
    int64_t compiles = executor.compileCount();

    std::mt19937_64 rng(7);
    std::vector<std::vector<runtime::StepGroup>> steps;
    std::vector<std::vector<uint64_t>> serial;
    for (int i = 0; i < 20; ++i) {
        steps.push_back(randomStep(rng));
        serial.push_back(stepBits(executor.step(steps.back())));
    }

    constexpr int kThreads = 4;
    constexpr int kSteps = 500;
    std::vector<int> mismatches(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (int i = 0; i < kSteps; ++i) {
                size_t k = static_cast<size_t>(i + t) % steps.size();
                if (stepBits(executor.step(steps[k])) != serial[k])
                    ++mismatches[static_cast<size_t>(t)];
            }
        });
    for (auto &thread : threads)
        thread.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(mismatches[static_cast<size_t>(t)], 0)
            << "thread " << t;
    EXPECT_EQ(executor.compileCount(), compiles);
}

TEST(Executor, GatedPrefillMatchesUngatedWhenWeightsResident)
{
    // All-zero watermarks (weights resident before the run) gate
    // nothing: the chained per-layer sum equals run().ttft_ms up
    // to summation order.
    runtime::LlmExecutor executor(models::gpt2Config(),
                                  hls::u55c());
    auto run = executor.run(32, 1);
    std::vector<double> warm(
        static_cast<size_t>(executor.config().layers), 0.0);
    double end = executor.gatedPrefillEndMs(32, warm, 0.0);
    EXPECT_NEAR(end, run.ttft_ms, 1e-6 * run.ttft_ms);
}

TEST(Executor, GatedPrefillStallsOnLateWeights)
{
    runtime::LlmExecutor executor(models::gpt2Config(),
                                  hls::u55c());
    auto layers = static_cast<size_t>(executor.config().layers);

    // A far-future uniform watermark pins the result: only layer
    // 0 waits (its successors' weights landed long before their
    // turn), so the pass degenerates to ready + one full prefill.
    std::vector<double> warm(layers, 0.0);
    double warm_end = executor.gatedPrefillEndMs(32, warm, 0.0);
    std::vector<double> late(layers, 1e6);
    double late_end = executor.gatedPrefillEndMs(32, late, 0.0);
    EXPECT_NEAR(late_end, 1e6 + warm_end, 1e-6 * late_end);

    // Gating is monotone in the watermark and never beats warm.
    std::vector<double> partial(layers, 0.0);
    partial.back() = warm_end; // only the last layer streams late
    double partial_end =
        executor.gatedPrefillEndMs(32, partial, 0.0);
    EXPECT_GE(partial_end, warm_end);
    EXPECT_LE(partial_end, late_end);

    EXPECT_THROW(executor.gatedPrefillEndMs(32, {}, 0.0),
                 FatalError);
}
