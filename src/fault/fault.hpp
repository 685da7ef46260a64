/**
 * @file
 * Deterministic, seeded fault injection for the serving stack.
 *
 * Production reliability work is only as good as its failure drills: a
 * recovery path that cannot be exercised on demand is a recovery path
 * that has never been tested. The FaultPlan makes every fault in the
 * engine *injectable and replayable*: whether invocation k at site s
 * suffers a fault is a pure function of (seed, kind, site, k) — a
 * splitmix64-style hash mapped to [0, 1) and compared against the
 * configured rate. Nothing about thread scheduling, wall-clock time, or
 * prior draws changes a decision, so
 *
 *  - the same seed replays the exact same fault trace run after run,
 *  - decisions for a fixed (site, k) grid are identical at any thread
 *    count (tests/test_fault.cpp pins both), and
 *  - recovery behavior (retries, failovers, shard re-execution,
 *    quarantine) is reproducible enough to assert on.
 *
 * Injected fault kinds and where the engine consults the plan:
 *
 *   BackendFailure — the routed backend's execution pass throws; the
 *                    engine retries with exponential backoff and fails
 *                    over through the BackendRouter circuit breaker.
 *   BackendSlow    — the pass completes but its simulated latency is
 *                    multiplied by slowFactor (SLO pressure, not an
 *                    error; correctness must be unaffected).
 *   HaloDrop       — a shard's halo exchange payload for one layer is
 *                    dropped/corrupted; the shard executor runs that
 *                    (layer, shard)'s row-set call a second time, fp32
 *                    and int8 alike; the repeat overwrites the same
 *                    owned rows (bit-identical stitch preserved).
 *   StoreCorrupt   — an artifact store read returns corrupt bytes; the
 *                    load path quarantines the file and rebuilds from
 *                    scratch, exactly as it would for a real CRC failure.
 *
 * The seed resolves from GCOD_FAULT_SEED when the environment variable
 * is set, so CI can sweep seeds without recompiling.
 */
#ifndef GCOD_FAULT_FAULT_HPP
#define GCOD_FAULT_FAULT_HPP

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace gcod::fault {

/** The failure modes the serving stack can be drilled on. */
enum class FaultKind : uint8_t {
    BackendFailure = 0, ///< backend execution pass throws
    BackendSlow = 1,    ///< latency spike on a completed pass
    HaloDrop = 2,       ///< shard halo payload dropped/corrupted
    StoreCorrupt = 3,   ///< artifact store read corruption
};

/** Number of kinds (array sizing). */
constexpr int kNumFaultKinds = 4;

const char *faultKindName(FaultKind k);

/** Per-kind injection rates; all zero = injection disabled. */
struct FaultConfig
{
    /** Base seed; GCOD_FAULT_SEED (when set) overrides it. */
    uint64_t seed = 0;
    /** Probability a backend execution pass fails. */
    double backendFailRate = 0.0;
    /** Probability a completed pass takes a latency spike. */
    double backendSlowRate = 0.0;
    /** Simulated-latency multiplier of an injected slow pass. */
    double slowFactor = 8.0;
    /** Probability one shard's halo payload drops for one layer. */
    double haloDropRate = 0.0;
    /** Probability an artifact store read returns corrupt bytes. */
    double storeCorruptRate = 0.0;

    bool
    enabled() const
    {
        return backendFailRate > 0.0 || backendSlowRate > 0.0 ||
               haloDropRate > 0.0 || storeCorruptRate > 0.0;
    }
};

/**
 * Resolve the effective fault seed: GCOD_FAULT_SEED when set (parsed as
 * an unsigned integer), else @p fallback.
 */
uint64_t faultSeedFromEnv(uint64_t fallback);

/** One injected fault, for trace comparison across runs. */
struct FaultRecord
{
    FaultKind kind;
    std::string site;
    /** Invocation index at (kind, site) the fault fired on. */
    uint64_t invocation = 0;

    bool
    operator==(const FaultRecord &o) const
    {
        return kind == o.kind && invocation == o.invocation &&
               site == o.site;
    }
    bool
    operator<(const FaultRecord &o) const
    {
        if (kind != o.kind)
            return kind < o.kind;
        if (site != o.site)
            return site < o.site;
        return invocation < o.invocation;
    }
};

/**
 * The seeded fault plan. Decision logic is stateless and pure
 * (wouldInject); the stateful wrappers only maintain per-site invocation
 * counters and the injected-fault trace, both behind a mutex so any
 * thread can draw. A default-constructed plan injects nothing.
 */
class FaultPlan
{
  public:
    FaultPlan() = default;
    /** Seed resolves through faultSeedFromEnv(cfg.seed). */
    explicit FaultPlan(FaultConfig cfg);

    const FaultConfig &config() const { return cfg_; }
    uint64_t seed() const { return seed_; }
    bool enabled() const { return cfg_.enabled(); }

    /**
     * Pure decision: does invocation @p k of @p kind at @p site inject?
     * Depends only on (seed, kind, site, k) — never on call order,
     * threads, or prior decisions.
     */
    bool wouldInject(FaultKind kind, const std::string &site,
                     uint64_t k) const;

    /**
     * Stateful draw: consume the next invocation index of (kind, site)
     * and decide. Injected faults are appended to the trace. Thread-safe.
     */
    bool shouldInject(FaultKind kind, const std::string &site);

    /**
     * Deterministic-index variant for sites whose invocation order is
     * thread-dependent but whose index space is not (e.g. halo drops
     * keyed by (layer, shard)): decide via wouldInject(kind, site, k)
     * and record the injection in the trace. Thread-safe.
     */
    bool checkIndexed(FaultKind kind, const std::string &site, uint64_t k);

    /** Total invocations drawn at (kind, site) via shouldInject. */
    uint64_t invocations(FaultKind kind, const std::string &site) const;

    /** Total faults injected (all kinds, all sites). */
    uint64_t injectedCount() const;
    /** Faults injected of one kind. */
    uint64_t injectedCount(FaultKind kind) const;

    /**
     * Injected-fault trace, sorted (kind, site, invocation) so two runs
     * compare with operator== regardless of recording interleave.
     */
    std::vector<FaultRecord> trace() const;

  private:
    double rateFor(FaultKind kind) const;

    FaultConfig cfg_;
    uint64_t seed_ = 0;

    mutable std::mutex mu_;
    /** (kind, site) -> next invocation index. */
    std::map<std::pair<int, std::string>, uint64_t> counters_;
    std::vector<FaultRecord> trace_;
    uint64_t injected_[kNumFaultKinds] = {0, 0, 0, 0};
};

} // namespace gcod::fault

#endif // GCOD_FAULT_FAULT_HPP
