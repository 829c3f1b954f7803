/**
 * @file
 * Piecewise-linear token production/consumption model
 * (paper §5.3.1-5.3.3, Fig. 8).
 *
 * A kernel that streams T tokens is characterised by its initial
 * delay D (cycles from execution start to the first output token)
 * and its pipeline II (cycles between consecutive tokens). The
 * cumulative token count over time is then a clamped staircase
 * that the paper models as a piecewise linear function. The
 * maximum occupancy of the FIFO between a Source and a Target
 * follows analytically from the two curves and the `delay` between
 * their execution starts (Eq. 1 and Eq. 2).
 */

#ifndef STREAMTENSOR_TOKEN_TOKEN_MODEL_H
#define STREAMTENSOR_TOKEN_TOKEN_MODEL_H

#include <cstdint>
#include <string>

namespace streamtensor {
namespace token {

/** Profiled streaming behaviour of one kernel (from hls model). */
struct KernelProfile
{
    /** Cycles from execution start to the first output token (D). */
    double initial_delay = 0.0;

    /** Cycles between consecutive tokens (pipeline II). */
    double ii = 1.0;

    /** Latency L of a full execution producing @p tokens tokens:
     *  L = D + (T - 1) * II. */
    double latency(int64_t tokens) const;
};

/**
 * Cumulative token-count curve: the number of tokens that have
 * crossed a point by time t, given the producing kernel starts at
 * @p start and emits @p total tokens.
 */
class TokenCurve
{
  public:
    TokenCurve(double start, const KernelProfile &profile,
               int64_t total);

    /** Tokens produced by (inclusive) time @p t. */
    int64_t countAt(double t) const;

    /** Time at which the k-th token (1-based) is produced. */
    double timeOfToken(int64_t k) const;

    /** Time the last token is produced. */
    double finishTime() const;

    double start() const { return start_; }
    double ii() const { return ii_; }
    int64_t total() const { return total_; }

  private:
    double start_;
    double delay_;
    double ii_;
    int64_t total_;
};

/**
 * Exact maximum FIFO occupancy between a source kernel (starting
 * at time 0) and a target kernel (starting at time @p delay),
 * connected by a FIFO carrying @p tokens tokens. The target pulls
 * its k-th token no earlier than the source pushed it and no
 * faster than its own II allows; this token-by-token recurrence
 * reproduces Fig. 8(a) exactly, including target starvation
 * (Fig. 8(e)). FIFO sizing uses the closed forms below; this
 * recurrence is their reference.
 */
int64_t maxOccupancyExact(const KernelProfile &source,
                          const KernelProfile &target, double delay,
                          int64_t tokens);

/**
 * Paper closed forms. When the source throughput exceeds the
 * target's (II_src < II_tgt), Eq. 1 applies:
 *   max_tokens = min(T, T - floor((L - delay) / II_tgt))
 * otherwise Eq. 2:
 *   max_tokens = min(T, ceil((delay - D) / II_src))
 * The result is clamped to >= 1 (a FIFO always holds one token in
 * flight).
 */
int64_t maxTokensClosedForm(const KernelProfile &source,
                            const KernelProfile &target, double delay,
                            int64_t tokens);

/** FIFO-depth equalization strategies (paper §5.3.3). */
enum class Equalization {
    /** Kernels run at their profiled throughput. */
    Normal,
    /** All IIs scaled up to the slowest kernel's throughput,
     *  minimising FIFO sizes at a possible latency cost. */
    Conservative,
};

/** Printable name. */
std::string equalizationName(Equalization strategy);

} // namespace token
} // namespace streamtensor

#endif // STREAMTENSOR_TOKEN_TOKEN_MODEL_H
