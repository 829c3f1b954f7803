#include "serving/fleet.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "serving/trace.h"
#include "support/error.h"

namespace streamtensor {
namespace serving {

namespace {

/** One request waiting in the fleet's retry buffer: a failover
 *  waiting out its backoff, a drain hand-off, or an arrival parked
 *  because no replica was eligible. */
struct PendingRequest
{
    Request req;
    ResumeState state;

    /** Failover attempts consumed so far (== state.failovers). */
    int64_t attempts = 0;
};

/** One fleet run: the retry buffer, per-replica up/reload state
 *  and the six round phases, advanced by run() on one simulated
 *  clock. */
struct FleetRun
{
    const FleetOptions &options;
    StepCostModel &cost;
    StepCostModel *degraded_cost;
    ArrivalCursor &arrivals;

    static constexpr double inf =
        std::numeric_limits<double>::infinity();

    int n;
    std::vector<ReplicaEngine> engines;
    std::vector<bool> up;
    std::vector<double> up_since;

    /** Instant each replica's in-flight weight reload completes
     *  (+infinity = none pending). A replica mid-reload is down:
     *  up[] stays false until the window elapses, so it takes no
     *  launches and the balancer skips it. */
    std::vector<double> reload_ready;
    std::unique_ptr<LoadBalancer> lb;
    FaultInjector injector;
    FleetResult result;

    /** Retry buffer keyed by (ready instant, id): map order IS
     *  dispatch order, which keeps redispatch deterministic. */
    std::map<std::pair<double, int64_t>, PendingRequest> pending;

    /** Indexes over the buffer kept in lockstep by parkPending /
     *  erasePending: ready instant by request id (to find an
     *  entry from its deadline), and the (deadline, id) set whose
     *  minimum gates the expiry sweep and the next-instant scan —
     *  O(1) to skip, O(log n) per actual expiry. */
    std::map<int64_t, double> pending_ready;
    std::set<std::pair<double, int64_t>> pending_deadlines;

    double now = 0.0;

    FleetRun(const FleetOptions &options_in,
             StepCostModel &cost_in,
             StepCostModel *degraded_cost_in,
             ArrivalCursor &arrivals_in)
        : options(options_in), cost(cost_in),
          degraded_cost(degraded_cost_in), arrivals(arrivals_in),
          n(options_in.num_replicas),
          lb(makeLoadBalancer(options_in.balancer)),
          injector(options_in.faults)
    {
        engines.reserve(static_cast<size_t>(n));
        for (int i = 0; i < n; ++i)
            engines.emplace_back(options.replica, cost, i);
        up.assign(static_cast<size_t>(n), true);
        up_since.assign(static_cast<size_t>(n), 0.0);
        reload_ready.assign(static_cast<size_t>(n), inf);
        result.metrics.replica_up_ms.assign(
            static_cast<size_t>(n), 0.0);
    }

    double swapReloadMs() const
    {
        return options.swap_reload_ms >= 0.0
                   ? options.swap_reload_ms
                   : options.recovery_reload_ms;
    }

    /** Take @p idx out of service for @p window ms of weight
     *  re-streaming; it rejoins via completeReloads(). Counted
     *  here so both call sites (recover, swap) stay in
     *  lockstep. */
    void startReload(size_t idx, double window)
    {
        FleetMetrics &fm = result.metrics;
        reload_ready[idx] = now + window;
        ++fm.reloads;
        fm.reload_ms_total += window;
    }

    /** Bring every replica whose reload window has elapsed back
     *  into service (id order). Runs at the top of the faults
     *  phase — a reload completing exactly at a fault instant
     *  precedes that instant's events — and again after them, so
     *  a zero-window reload rejoins within its own round. */
    void completeReloads()
    {
        for (size_t i = 0; i < static_cast<size_t>(n); ++i) {
            if (up[i] || reload_ready[i] > now)
                continue;
            up[i] = true;
            up_since[i] = now;
            reload_ready[i] = inf;
        }
    }

    std::vector<ReplicaStatus> statuses()
    {
        std::vector<ReplicaStatus> s(static_cast<size_t>(n));
        for (int i = 0; i < n; ++i) {
            auto &eng = engines[static_cast<size_t>(i)];
            s[static_cast<size_t>(i)] = {
                i,
                up[static_cast<size_t>(i)],
                eng.draining(),
                eng.queueDepth(),
                eng.activeCount(),
                eng.kvLoadTokens()};
        }
        return s;
    }

    double backoffMs(int64_t attempts) const
    {
        double b = options.retry_backoff_ms;
        for (int64_t k = 1; k < attempts; ++k)
            b *= options.retry_backoff_factor;
        return b;
    }

    void rejectFleet(const Request &r, RejectReason reason)
    {
        FleetMetrics &fm = result.metrics;
        switch (reason) {
        case RejectReason::QueueFull:
            ++fm.rejected_queue_full;
            break;
        case RejectReason::TooLong:
            ++fm.rejected_too_long;
            break;
        case RejectReason::DeadlineExpired:
            ++fm.expired_deadline;
            break;
        case RejectReason::Drained:
            ++fm.rejected_drained;
            break;
        }
        result.rejected.push_back(
            {r.id, r.arrival_ms, reason, now});
    }

    void loseRequest(const Request &r, int64_t attempts)
    {
        ++result.metrics.requests_lost;
        result.lost.push_back({r.id, now, attempts});
    }

    /** Insert into the retry buffer and maintain its indexes.
     *  An entry ready in the future wakes the loop at its ready
     *  instant, and one with a future deadline at that deadline;
     *  an entry ready at or before now routes in the first round
     *  that has an eligible replica and never wakes the loop on
     *  its own. */
    void parkPending(double ready, PendingRequest pr)
    {
        int64_t id = pr.req.id;
        double deadline = pr.req.deadline_ms;
        pending[{ready, id}] = std::move(pr);
        pending_ready[id] = ready;
        if (deadline > 0.0)
            pending_deadlines.insert({deadline, id});
    }

    using PendingIt = std::map<std::pair<double, int64_t>,
                               PendingRequest>::iterator;

    PendingIt erasePending(PendingIt it)
    {
        const Request &r = it->second.req;
        pending_ready.erase(r.id);
        if (r.deadline_ms > 0.0)
            pending_deadlines.erase({r.deadline_ms, r.id});
        return pending.erase(it);
    }

    void dispatchArrival(const Request &r)
    {
        // servable() is a pure function of the shared replica
        // options, so one engine answers for the whole fleet.
        if (!engines[0].servable(r)) {
            rejectFleet(r, RejectReason::TooLong);
            return;
        }
        if (r.deadline_ms > 0.0 && r.deadline_ms <= now) {
            rejectFleet(r, RejectReason::DeadlineExpired);
            return;
        }
        int target = lb->pick(r, statuses());
        if (target < 0) {
            // Total outage: park with no attempt consumed; the
            // request dispatches the instant a replica recovers.
            parkPending(now, {r, ResumeState{}, 0});
            return;
        }
        engines[static_cast<size_t>(target)].offer(r, now);
    }

    /** Some replica can take work (the balancers' eligibility
     *  rule: up and not draining). */
    bool anyEligible() const
    {
        for (size_t i = 0; i < static_cast<size_t>(n); ++i)
            if (up[i] && !engines[i].draining())
                return true;
        return false;
    }

    /** Route every due retry-buffer entry to an eligible replica.
     *  Readmission is front-insertion, so dispatching in *reverse*
     *  (ready, id) order leaves earlier requests nearer the head
     *  on a shared target.
     *
     *  With no eligible replica the due entries stay parked under
     *  their keys, untouched: eligibility only changes in the
     *  faults phase, which precedes this one, and every balancer
     *  fails exactly when the eligible set is empty (a failed
     *  pick has no side effect). So when any replica is eligible,
     *  every pick below succeeds, and a parked request costs
     *  nothing per round until an eligibility change lets the
     *  next round route it. */
    void redispatchDue()
    {
        if (pending.empty() || pending.begin()->first.first > now ||
            !anyEligible())
            return;
        std::vector<PendingRequest> due;
        for (auto it = pending.begin();
             it != pending.end() && it->first.first <= now;) {
            due.push_back(std::move(it->second));
            it = erasePending(it);
        }
        for (auto it = due.rbegin(); it != due.rend(); ++it) {
            ++result.metrics.redispatch_picks;
            int target = lb->pick(it->req, statuses());
            ST_ASSERT(target >= 0,
                      "balancer refused an eligible fleet");
            engines[static_cast<size_t>(target)].readmit(it->req,
                                                         it->state);
        }
    }

    /** Expire the retry buffer's overdue entries (a parked
     *  request can expire mid-outage) off its (deadline, id)
     *  index, in deadline order: O(1) when nothing is overdue,
     *  O(log n) per expiry. The rejection log sorts by
     *  (instant, id) at finalize, so the in-round order is
     *  free. */
    void expirePending()
    {
        while (!pending_deadlines.empty() &&
               pending_deadlines.begin()->first <= now) {
            int64_t id = pending_deadlines.begin()->second;
            auto it = pending.find({pending_ready.at(id), id});
            ST_ASSERT(it != pending.end(),
                      "retry-buffer deadline index out of sync");
            rejectFleet(it->second.req,
                        RejectReason::DeadlineExpired);
            erasePending(it);
        }
    }

    void applyFault(const FaultEvent &e)
    {
        FleetMetrics &fm = result.metrics;
        auto idx = static_cast<size_t>(e.replica);
        ReplicaEngine &eng = engines[idx];
        switch (e.kind) {
        case FaultKind::Crash: {
            if (!up[idx])
                break; // already down: tolerant no-op
            up[idx] = false;
            fm.replica_up_ms[idx] += now - up_since[idx];
            ++fm.crashes;
            if (eng.busy())
                ++fm.aborted_steps;
            // A crash wipes transient state; standing slow /
            // degrade / drain windows re-apply only via their own
            // events landing while the replica is down.
            eng.setDraining(false);
            eng.setSlowFactor(1.0);
            eng.setCost(cost);
            for (auto &ev : eng.crash()) {
                ev.state.failovers += 1;
                ++fm.failovers;
                if (ev.state.failovers > options.max_retries) {
                    loseRequest(ev.req, ev.state.failovers);
                } else {
                    double ready =
                        now + backoffMs(ev.state.failovers);
                    parkPending(ready, {ev.req, ev.state,
                                        ev.state.failovers});
                }
            }
            break;
        }
        case FaultKind::Recover:
            // Tolerant no-op when up — or mid-reload: a second
            // Recover must not restart (or shortcut) the window.
            if (up[idx] || reload_ready[idx] < inf)
                break;
            ++fm.recoveries;
            if (options.recovery_reload_ms > 0.0) {
                // The replica spends the reload window
                // re-streaming weights from storage before it is
                // eligible again; completeReloads() rejoins it.
                startReload(idx, options.recovery_reload_ms);
            } else {
                up[idx] = true;
                up_since[idx] = now;
            }
            break;
        case FaultKind::SlowStart:
            // Takes effect at the next launch; an in-flight step
            // keeps the cost it was launched with.
            eng.setSlowFactor(e.factor);
            ++fm.slowdowns;
            break;
        case FaultKind::SlowEnd:
            eng.setSlowFactor(1.0);
            break;
        case FaultKind::DegradeStart:
            if (degraded_cost) {
                eng.setCost(*degraded_cost);
                ++fm.degrades;
            }
            break;
        case FaultKind::DegradeEnd:
            eng.setCost(cost);
            break;
        case FaultKind::DrainStart:
            if (up[idx] && !eng.draining()) {
                eng.setDraining(true);
                ++fm.drains;
                // Graceful: the queue re-routes immediately, no
                // attempt consumed, no backoff — nothing was
                // lost.
                for (auto &ev : eng.evacuateQueue())
                    parkPending(now, {ev.req, ev.state,
                                      ev.state.failovers});
            }
            break;
        case FaultKind::DrainEnd:
            eng.setDraining(false);
            break;
        case FaultKind::Swap: {
            if (!up[idx])
                break; // down or mid-reload: tolerant no-op
            up[idx] = false;
            fm.replica_up_ms[idx] += now - up_since[idx];
            ++fm.swaps;
            if (eng.busy())
                ++fm.aborted_steps;
            eng.setDraining(false);
            // Graceful evacuation: operator-initiated, so no
            // retry attempt is consumed and no backoff applies —
            // but KV dies with the old weights, so resumed
            // requests recompute their prefix elsewhere.
            for (auto &ev : eng.crash())
                parkPending(now, {ev.req, ev.state,
                                  ev.state.failovers});
            startReload(idx, swapReloadMs());
            break;
        }
        }
    }

    void faultsPhase()
    {
        // Reloads elapsing exactly at a fault instant complete
        // before that instant's events; the trailing pass lets a
        // zero-window reload (instant swap) rejoin immediately.
        completeReloads();
        for (const auto &e : injector.drainDue(now))
            applyFault(e);
        completeReloads();
    }

    void arrivalsPhase()
    {
        while (!arrivals.exhausted() &&
               arrivals.nextArrivalMs() <= now)
            dispatchArrival(arrivals.take());
    }

    /** Committed steps across the fleet, and whether any work
     *  remains anywhere. O(num_replicas). */
    std::pair<int64_t, bool> progress()
    {
        int64_t total_steps = 0;
        bool any_busy = false, any_work = false;
        for (auto &eng : engines) {
            total_steps += eng.result().metrics.steps;
            any_busy = any_busy || eng.busy();
            any_work = any_work || eng.hasWork();
        }
        bool work_left = any_busy || any_work ||
                         !pending.empty() ||
                         !arrivals.exhausted();
        return {total_steps, work_left};
    }

    /** Work remains but no future event can revive a replica to
     *  run it: every parked request is lost. */
    void strandPending()
    {
        for (const auto &[key, p] : pending)
            loseRequest(p.req, p.attempts);
        pending.clear();
        pending_ready.clear();
        pending_deadlines.clear();
    }

    void finalizeRun()
    {
        FleetMetrics &fm = result.metrics;
        for (int i = 0; i < n; ++i) {
            auto idx = static_cast<size_t>(i);
            if (up[idx])
                fm.replica_up_ms[idx] += now - up_since[idx];
            ReplicaEngine &eng = engines[idx];
            eng.finalize(now);
            const ServingMetrics &m = eng.result().metrics;
            fm.requests.insert(fm.requests.end(),
                               m.requests.begin(),
                               m.requests.end());
            fm.completed += m.completed;
            fm.records_complete =
                fm.records_complete && m.records_complete;
            // Replica-id merge order keeps the fleet sketch
            // bit-identical across runs.
            fm.latency_sketch.merge(m.latency_sketch);
            fm.rejected_queue_full += m.rejected_queue_full;
            fm.rejected_too_long += m.rejected_too_long;
            fm.expired_deadline += m.expired_deadline;
            fm.rejected_drained += m.rejected_drained;
            fm.deadline_misses += m.deadline_misses;
            fm.preemptions += m.preemptions;
            fm.total_output_tokens += m.total_output_tokens;
            fm.weight_stall_ms += m.weight_stall_ms;
            fm.steps += m.steps;
            result.rejected.insert(result.rejected.end(),
                                   eng.result().rejected.begin(),
                                   eng.result().rejected.end());
            result.replicas.push_back(std::move(eng.result()));
        }
        std::stable_sort(fm.requests.begin(), fm.requests.end(),
                         [](const RequestMetrics &a,
                            const RequestMetrics &b) {
                             return a.finish_ms < b.finish_ms ||
                                    (a.finish_ms == b.finish_ms &&
                                     a.id < b.id);
                         });
        std::stable_sort(result.rejected.begin(),
                         result.rejected.end(),
                         [](const RejectedRequest &a,
                            const RejectedRequest &b) {
                             return a.at_ms < b.at_ms ||
                                    (a.at_ms == b.at_ms &&
                                     a.id < b.id);
                         });
        fm.makespan_ms = now;
    }

    FleetResult run()
    {
        while (true) {
            // 1. Step completions (id order). A step ending
            // exactly at a crash instant completes first: its
            // tokens were produced before the failure.
            for (auto &eng : engines)
                if (eng.busy() && eng.stepEndMs() <= now)
                    eng.completeStep();

            // 2. Fault events, in plan firing order — before
            // arrivals, so an arrival at a crash instant sees the
            // replica down.
            faultsPhase();

            // 3. Arrivals, in (arrival, id) order.
            arrivalsPhase();

            // 4. Deadline sweeps: replica queues (O(1) when
            // deadline-free, queue.h), then the retry buffer.
            for (auto &eng : engines)
                eng.expireDeadlines(now);
            expirePending();

            // 5. Due retries.
            redispatchDue();

            // 6. Launch a step on every idle up replica (id
            // order).
            for (int i = 0; i < n; ++i) {
                auto &eng = engines[static_cast<size_t>(i)];
                if (up[static_cast<size_t>(i)] && !eng.busy()) {
                    eng.launchStep(now);
                    ST_ASSERT(eng.busy() || !eng.hasWork() ||
                                  eng.draining(),
                              "idle up replica refused its work");
                }
            }

            auto [total_steps, work_left] = progress();
            if (total_steps >= options.replica.max_steps &&
                work_left) {
                result.hit_step_limit = true;
                break;
            }
            if (!work_left)
                break; // served everything; residual faults moot

            // Advance to the next event: earliest step end,
            // fault, arrival, future retry, or parked-request
            // deadline (parked entries with ready <= now wait on
            // one of the others — or expire, or strand). The
            // retry buffer's two indexes each answer their
            // earliest instant after now in one lookup.
            double next_t = injector.nextAtMs();
            for (auto &eng : engines)
                if (eng.busy())
                    next_t = std::min(next_t, eng.stepEndMs());
            for (int i = 0; i < n; ++i)
                if (reload_ready[static_cast<size_t>(i)] > now)
                    next_t = std::min(
                        next_t,
                        reload_ready[static_cast<size_t>(i)]);
            if (!arrivals.exhausted())
                next_t =
                    std::min(next_t, arrivals.nextArrivalMs());
            const std::pair<double, int64_t> after_now{
                now, std::numeric_limits<int64_t>::max()};
            auto ready = pending.upper_bound(after_now);
            if (ready != pending.end())
                next_t = std::min(next_t, ready->first.first);
            auto deadline = pending_deadlines.upper_bound(after_now);
            if (deadline != pending_deadlines.end())
                next_t = std::min(next_t, deadline->first);
            if (next_t == inf) {
                strandPending();
                break;
            }
            ST_ASSERT(next_t > now,
                      "fleet clock failed to advance");
            now = next_t;
        }
        finalizeRun();
        return std::move(result);
    }
};

} // namespace

double
FleetMetrics::availability() const
{
    int64_t outcomes = completed + requests_lost + expired_deadline;
    return outcomes > 0 ? static_cast<double>(completed) /
                              static_cast<double>(outcomes)
                        : 1.0;
}

double
FleetMetrics::uptimeFraction() const
{
    if (makespan_ms <= 0.0 || replica_up_ms.empty())
        return 1.0;
    double up = 0.0;
    for (double ms : replica_up_ms)
        up += ms;
    return up / (makespan_ms *
                 static_cast<double>(replica_up_ms.size()));
}

double
FleetMetrics::servedRequestsPerSecond() const
{
    return makespan_ms > 0.0
               ? static_cast<double>(completed) / makespan_ms * 1e3
               : 0.0;
}

double
FleetMetrics::latencyPercentileMs(double p) const
{
    return recordPercentileMs(requests, records_complete,
                              latency_sketch,
                              &RequestMetrics::latencyMs, p);
}

FleetScheduler::FleetScheduler(FleetOptions options,
                               StepCostModel &cost,
                               StepCostModel *degraded_cost)
    : options_(std::move(options)), cost_(cost),
      degraded_cost_(degraded_cost)
{
    ST_CHECK(options_.num_replicas >= 1, "fleet needs replicas");
    ST_CHECK(options_.max_retries >= 0, "retry budget domain");
    ST_CHECK(options_.retry_backoff_ms >= 0.0,
             "retry backoff domain");
    ST_CHECK(options_.retry_backoff_factor >= 1.0,
             "retry backoff factor domain");
    // Reload windows must be finite: +infinity is the "no reload
    // pending" sentinel, so an infinite window would let a second
    // Recover restart it, or a Recover cut a swap short.
    ST_CHECK(options_.recovery_reload_ms >= 0.0 &&
                 std::isfinite(options_.recovery_reload_ms),
             "recovery reload domain");
    ST_CHECK(options_.swap_reload_ms < 0.0 ||
                 std::isfinite(options_.swap_reload_ms),
             "swap reload domain");
    validateSchedulerOptions(options_.replica);
    for (const auto &e : options_.faults.events)
        ST_CHECK(e.replica >= 0 &&
                     e.replica < options_.num_replicas,
                 "fault plan names a replica outside the fleet");
}

FleetResult
FleetScheduler::run(std::vector<Request> trace)
{
    sortAndValidateTrace(trace);
    ArrivalCursor arrivals(trace);
    return runCursor(arrivals);
}

FleetResult
FleetScheduler::run(TraceGenerator &trace)
{
    // The generator's stream is already in (arrival, id) order
    // and domain-valid by construction — see trace.h.
    ArrivalCursor arrivals(trace);
    return runCursor(arrivals);
}

FleetResult
FleetScheduler::runCursor(ArrivalCursor &arrivals)
{
    return FleetRun(options_, cost_, degraded_cost_, arrivals).run();
}

} // namespace serving
} // namespace streamtensor
