/**
 * @file
 * Feedback controller closing the loop from per-tenant telemetry to
 * adaptive epoch sizing and graduated load shedding.
 *
 * The paper's precision/performance tradeoff hangs on the epoch size h
 * (Section 6: larger epochs amortize SOS folds but coarsen concurrency),
 * and the service's only pre-existing defense against overload was a
 * binary queue watermark. The controller replaces that cliff with a
 * ladder:
 *
 *     Normal → Grow2 → Grow4 → Grow8 → Partial → Busy → Shed
 *
 * The Grow levels coarsen the realized epoch slicing (EpochStream's
 * reslice seam merges 2/4/8 source epochs per analyzed epoch — cheaper
 * per event, still bit-reproducible against a reference layout built
 * from the same realized spans). Partial keeps analyzing at the
 * coarsest slicing but ships only the Summary fingerprint. Busy pushes
 * go-back-N back-pressure before the hard watermark would. Shed rejects
 * new sessions at the server's door with RejectCode::Overload.
 *
 * Transitions are hysteretic and deterministic: escalation needs
 * `escalateAfter` consecutive samples at or above `upThreshold`,
 * recovery needs `recoverAfter` consecutive samples at or below
 * `downThreshold`, and samples in the dead band reset both streaks.
 * The asymmetry (recovery slower than escalation, with a gap between
 * the thresholds) is what prevents oscillation under steady load — the
 * table-driven tests in test_epoch_controller.cpp pin this.
 */

#ifndef BUTTERFLY_SERVICE_EPOCH_CONTROLLER_HPP
#define BUTTERFLY_SERVICE_EPOCH_CONTROLLER_HPP

#include <cstddef>
#include <cstdint>

namespace bfly {

/** Rungs of the graduated degradation ladder, mildest first. */
enum class DegradeLevel : std::uint8_t {
    Normal = 0, ///< source slicing, full reports
    Grow2,      ///< merge 2 source epochs per analyzed epoch
    Grow4,      ///< merge 4
    Grow8,      ///< merge 8
    Partial,    ///< coarsest slicing + fingerprint-only summaries
    Busy,       ///< early go-back-N back-pressure on chunks
    Shed,       ///< reject new sessions (RejectCode::Overload)
};

const char *degradeLevelName(DegradeLevel level);

struct ControllerConfig
{
    /** Pressure at or above this escalates (after escalateAfter). */
    double upThreshold = 0.75;
    /** Pressure at or below this recovers (after recoverAfter). */
    double downThreshold = 0.40;
    /** Consecutive hot samples required to climb one rung. */
    int escalateAfter = 2;
    /** Consecutive cool samples required to descend one rung. */
    int recoverAfter = 4;
    /**
     * Size-driven coalescing target: merge consecutive tiny source
     * epochs until an analyzed epoch holds about this many events
     * (0 disables). Independent of the pressure ladder — a session
     * whose markers are far denser than the analysis sweet spot gets
     * coarsened even at Normal, mirroring the paper's "pick h for the
     * workload" guidance online.
     */
    std::size_t targetEventsPerEpoch = 0;
    /** Upper bound on source epochs merged into one analyzed epoch. */
    std::size_t maxCoalesce = 64;
};

/** One telemetry observation; fractions are each in [0, 1]-ish. */
struct ControllerSample
{
    double queueFraction = 0.0;  ///< session queue bytes / watermark
    double budgetFraction = 0.0; ///< accounted bytes / global budget
    double partialRate = 0.0;    ///< partial summaries / completed sessions
};

class EpochController
{
  public:
    EpochController() = default;
    explicit EpochController(const ControllerConfig &config)
        : config_(config)
    {
    }

    /** Fold one sample into the ladder; returns the (new) level. */
    DegradeLevel observe(const ControllerSample &sample);

    DegradeLevel level() const { return level_; }

    /**
     * Source epochs to merge per analyzed epoch at the current level:
     * 1/2/4/8, saturating at 8 for Partial and beyond (degradation past
     * Grow8 changes what is *reported* or *admitted*, not the slicing).
     */
    std::size_t coalesceFactor() const;

    std::uint64_t escalations() const { return escalations_; }
    std::uint64_t recoveries() const { return recoveries_; }

    const ControllerConfig &config() const { return config_; }

  private:
    ControllerConfig config_;
    DegradeLevel level_ = DegradeLevel::Normal;
    int hotStreak_ = 0;
    int coolStreak_ = 0;
    std::uint64_t escalations_ = 0;
    std::uint64_t recoveries_ = 0;
};

} // namespace bfly

#endif // BUTTERFLY_SERVICE_EPOCH_CONTROLLER_HPP
