/**
 * @file
 * Session analysis for the monitoring service: run one lifeguard over
 * one trace and produce a canonical, comparable report.
 *
 * Both sides of the wire use this module. The server walks a streaming
 * EpochStream (heartbeat boundaries — remote logs carry no gseq) with
 * the sequential window schedule, inline on the session's analysis
 * task; the client/loadgen computes a local reference with the same
 * walk over a materialized layout. The reports are required
 * to be bit-identical: records, SOS and the dataflow fingerprint all
 * match, or the service has corrupted the analysis somewhere between
 * the socket and the scheduler.
 */

#ifndef BUTTERFLY_SERVICE_ANALYZER_HPP
#define BUTTERFLY_SERVICE_ANALYZER_HPP

#include <cstdint>
#include <vector>

#include "common/worker_pool.hpp"
#include "lifeguards/registry.hpp"
#include "service/wire.hpp"
#include "trace/epoch_slicer.hpp"
#include "trace/trace.hpp"

namespace bfly::service {

/** One session's observable analysis result, in canonical form. */
struct RemoteReport
{
    std::vector<ErrorRecord> records; ///< sorted (tid,index,addr,kind,size)
    std::vector<Addr> sos;            ///< final SOS, sorted
    std::uint64_t fingerprint = 0;    ///< LifeguardReport::digest()
    std::uint64_t epochs = 0;
    std::uint64_t events = 0;         ///< non-heartbeat instructions
    std::uint64_t peakResidentEpochs = 0; ///< streaming runs only

    bool identical(const RemoteReport &other) const;
};

/**
 * Server path: the sequential window walk over a bounded EpochStream
 * sliced at the trace's embedded heartbeat markers, on the calling
 * thread, with at most two epochs resident. Concurrent sessions each
 * walk on their own pool task. (The task graph was worth ~10% events/s
 * on long sessions, not a second path: EXPERIMENTS.md, "The service
 * walks every session".) @p pool is not used; it stays for existing
 * callers (perfbench/serve.cpp).
 *
 * @p reslice optionally coalesces the marker-delimited source epochs
 * into coarser analyzed epochs (adaptive epoch sizing; see
 * EpochStream::ReslicePolicy). When set, @p realized_spans (if non-null)
 * receives the per-epoch merge widths actually chosen so the caller can
 * advertise them (EpochHint) and rebuild the bit-identical reference
 * with EpochLayout::coalescedFromHeartbeats.
 *
 * The stream views @p trace's events in place; only coalesced blocks,
 * which straddle markers, are copied. With telemetry on, the count of
 * copied events is added to bfly.service.session.copied_events in the
 * caller's current registry (the session's, on the server).
 */
RemoteReport analyzeStreaming(const SessionSpec &spec, const Trace &trace,
                              WorkerPool &pool,
                              const EpochStream::ReslicePolicy &reslice = {},
                              std::vector<std::uint32_t> *realized_spans =
                                  nullptr);

/**
 * Reference path: sequential barrier schedule over a materialized
 * layout. @p layout must describe @p trace.
 */
RemoteReport analyzeReference(const SessionSpec &spec, const Trace &trace,
                              const EpochLayout &layout);

} // namespace bfly::service

#endif // BUTTERFLY_SERVICE_ANALYZER_HPP
