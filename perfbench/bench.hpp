/**
 * @file
 * Shared pieces of the serving benchmark: the metric report, the
 * per-operation records a timed window collects, the workload interface
 * and the helpers the oracle and the layer sweep both use.
 */
#ifndef GCOD_PERFBENCH_BENCH_HPP
#define GCOD_PERFBENCH_BENCH_HPP

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "obs/trace.hpp"
#include "serve/engine.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/**
 * Kernel-pool threads of every workload (the caller plus one helper).
 * With at most two engine workers busy at once this keeps clients,
 * workers and pool helpers within the four cores the benchmark is sized
 * for.
 */
constexpr int kKernelThreads = 2;
/** Operand width of the quantized backends ("GCoD@bits=8"). */
constexpr int kInt8 = 8;
/**
 * Published-node threshold for sharded execution: the Pubmed stand-in
 * (19717 published nodes) shards, Cora (2708) stays on one chip.
 */
constexpr gcod::NodeId kShardMinNodes = 10000;
/** Shard count of the sharded Pubmed artifact. */
constexpr int kShards = 4;
/** Edge toggles per streamed delta. */
constexpr int kDeltaEdges = 8;
/** The five model families of the zoo, in a fixed order. */
extern const char *const kFamilies[5];

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** SplitMix64 step: derives independent streams from (seed, tag). */
uint64_t mix(uint64_t a, uint64_t b);

/** A failed correctness or determinism check. */
struct CheckFailure : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** Throw a CheckFailure naming the workload and the operation. */
[[noreturn]] void fail(const std::string &workload, const std::string &op,
                       const std::string &what);

/** Predicted class of @p node (folded onto the stand-in, as the engine does). */
int argmaxRow(const gcod::Matrix &logits, gcod::NodeId node);

/** One named metric with its unit and the sample count behind it. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    size_t n = 1;
    std::string note;
};

class Report
{
  public:
    void add(const std::string &name, double value, const std::string &unit,
             size_t n = 1, const std::string &note = "");
    /** Human-readable listing, one "metric" line per entry. */
    void print(std::ostream &os) const;

    std::vector<Metric> metrics;
};

/** The request fields a workload varies; names point into static tables. */
struct Request
{
    const char *dataset = "Cora";
    const char *model = "GCN";
    gcod::NodeId node = 0;
    int sampleFanout = 0;
    uint64_t sampleSeed = 0;

    gcod::serve::InferenceRequest make() const;
};

/**
 * The reply fields the metrics and the oracle read. Compact because a
 * live_updates window holds hundreds of thousands of them.
 */
struct Reply
{
    /** Interned backend label ("" on error). */
    const char *backend = "";
    size_t batchSize = 0;
    int executedBits = 0;
    int prediction = -1;
    double queueSeconds = 0.0;
    double serviceSeconds = 0.0;
    bool cacheHit = false;
    bool shed = false;
    bool timedOut = false;
    std::string error;

    explicit Reply(const gcod::serve::InferenceReply &r);
    Reply() = default;
    bool ok() const { return error.empty(); }
};

/** One client request of a timed window, as submitted and as answered. */
struct OpRecord
{
    int client = 0;
    /** Which engine served it (zoo_refresh: 0 = fp32, 1 = int8). */
    int engine = 0;
    /** Position in the workload's seeded operation stream. */
    size_t index = 0;
    Request request;
    /** Resident artifact versions seen just before submit / after reply. */
    uint64_t versionLo = 0;
    uint64_t versionHi = 0;
    Clock::time_point submitted;
    Clock::time_point done;
    Reply reply;

    double latencyMs() const { return 1e3 * secondsBetween(submitted, done); }
};

/** One streamed update of a timed window. */
struct UpdateRecord
{
    size_t index = 0;
    std::string dataset;
    Clock::time_point start;
    Clock::time_point done;
    gcod::serve::ServingEngine::UpdateResult result;

    double latencyMs() const { return 1e3 * secondsBetween(start, done); }
};

/** Everything a timed window produced. */
struct Window
{
    Clock::time_point begin;
    Clock::time_point end;
    /** A deque: appending never copies what a long window collected. */
    std::deque<OpRecord> ops;
    std::vector<UpdateRecord> updates;

    double seconds() const { return secondsBetween(begin, end); }
};

/**
 * Outcome of a workload's fixed-length determinism script: one line per
 * operation plus the counts (dispatch per backend, executed precision,
 * batch-size histogram, dyn/shard counts) that must repeat exactly for
 * the same seed.
 */
struct Determinism
{
    std::vector<std::string> lines;
    std::map<std::string, uint64_t> counts;

    void count(const Reply &reply);
    /** FNV-1a over lines and counts; printed so runs can be compared. */
    uint64_t hash() const;
};

/** Span totals of a traced window (serve layer). */
struct SpanRollup
{
    size_t routes = 0;
    double routeNs = 0.0;
    /** host.exec spans, and those served from the memo or the store. */
    size_t memoLookups = 0;
    size_t memoHits = 0;

    /** Move @p engine's recorded spans into the totals. */
    void drain(gcod::serve::ServingEngine &engine);
};

/** Per-stage timings of one direct sampled replay (the nn oracle). */
struct SampledReplay
{
    int prediction = -1;
    double buildMs = 0.0;
    double quantizeMs = 0.0;
    double forwardMs = 0.0;
    size_t rows = 0;
    size_t nnz = 0;
};

/**
 * buildSampledExecution -> quantizeSampled -> quantizedForwardMixed over
 * @p bundle's int8 pack, exactly the pass the engine runs for a sampled
 * rider, timed stage by stage.
 */
SampledReplay replaySampled(const gcod::serve::ArtifactBundle &bundle,
                            int fanout, uint64_t seed, gcod::NodeId node);

/**
 * One workload: its engines, its seeded operation streams and its
 * correctness oracle. A workload object lives for one benchmark run;
 * setup() may be called repeatedly, each time on fresh engines.
 */
class Workload
{
  public:
    explicit Workload(uint64_t seed) : seed_(seed) {}
    virtual ~Workload() = default;

    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    virtual const char *name() const = 0;
    /** Effective configuration, printed with the results. */
    virtual std::string describe() const = 0;
    /** Most threads that can be busy at once (clients + workers + pool). */
    virtual int busyThreads() const = 0;
    /**
     * Clients of the closed loop whose operations the end-to-end metrics
     * time (0 when those operations do not form a closed loop).
     */
    virtual int closedLoopClients() const = 0;
    /**
     * True when the end-to-end latency and throughput metrics time the
     * window's applyUpdate() calls rather than its requests.
     */
    virtual bool updatesArePrimary() const { return false; }

    /** Fresh engines, cold builds of every artifact used, warm-up. */
    virtual void setup() = 0;
    /** Destroy the engines (outside any timed region). */
    virtual void teardown() = 0;
    /** A fixed-length prefix of the workload on the current engines. */
    virtual Determinism determinismScript() = 0;
    /** Drive the workload for at least @p seconds. */
    virtual Window run(double seconds) = 0;
    /** Correctness oracle over one window; throws CheckFailure. */
    virtual void verify(const Window &w) = 0;
    /** Checks that need the whole run (after the last window). */
    virtual void finalChecks() {}

    /** Turn request-level tracing of every engine on or off. */
    virtual void setTracing(bool on) = 0;
    /** Roll-up of every span the engines recorded while tracing was on. */
    virtual SpanRollup rollup() = 0;
    /** Seconds the current engines spent in cold artifact builds. */
    virtual double buildSeconds() const = 0;
    /** Engine whose router models the accelerator (accel sweep). */
    virtual gcod::serve::ServingEngine &primary() = 0;
    /**
     * Resident int8-capable bundle of (dataset, family), or null when the
     * workload does not serve it (the layer sweep then builds one).
     */
    virtual std::shared_ptr<const gcod::serve::ArtifactBundle>
    resident(const std::string &dataset, const std::string &family) = 0;

    /** Layer metrics only this workload's windows can supply. */
    virtual void layerMetrics(const Window &traced, Report &rep) = 0;
    /** True when layerMetrics() already reports the dyn/shard set. */
    virtual bool reportsUpdates() const { return false; }
    /** True when layerMetrics() already reports the sampled nn set. */
    virtual bool reportsSampled() const { return false; }

  protected:
    uint64_t seed_;
    /** Spans drained from the engines so far (traced window only). */
    SpanRollup rolled_;
};

std::unique_ptr<Workload> makeSampledSage(uint64_t seed);
std::unique_ptr<Workload> makeZooRefresh(uint64_t seed);
std::unique_ptr<Workload> makeLiveUpdates(uint64_t seed);

/** Serve options every workload starts from (count-only batching). */
gcod::serve::ServeOptions baseOptions(std::vector<std::string> backends,
                                      size_t workers, size_t max_batch);

/** Edge toggles among @p g's nodes, drawn from @p seed. */
struct EdgeToggle
{
    bool insert = false;
    gcod::NodeId u = 0;
    gcod::NodeId v = 0;
};
std::vector<EdgeToggle> drawToggles(const gcod::Graph &g, int count,
                                    uint64_t seed);
/** Append @p toggles to @p delta in order. */
void appendToggles(gcod::dyn::GraphDelta &delta,
                   const std::vector<EdgeToggle> &toggles);

/**
 * The per-layer sweep of a traced run: times each layer's public
 * functions directly (forwards per family and precision, kernel zones,
 * sampled replay, incremental and sharded updates, the accelerator
 * model) and adds the results to @p rep.
 */
void layerSweep(Workload &w, uint64_t seed, Report &rep);

} // namespace perfbench

#endif // GCOD_PERFBENCH_BENCH_HPP
