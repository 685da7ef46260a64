/**
 * @file
 * live_updates: a writer streams small edge-toggle deltas through
 * applyUpdate() in a closed loop, over an unsharded Cora GCN (the
 * IncrementalForward path) and a Pubmed GCN sharded four ways (shard
 * repair and sharded re-execution), while one reader sends closed-loop
 * full-batch requests over the same two artifacts.
 */
#include "bench.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <exception>
#include <mutex>
#include <sstream>
#include <thread>

#include "dyn/delta.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace gcod;
using namespace gcod::serve;

namespace {

const char *const kDatasets[2] = {"Cora", "Pubmed"};

/** Reads between span drains while tracing. */
constexpr size_t kDrainEvery = 4096;

/**
 * Dataset of operation i (writer and reader alike): Cora, Cora, Pubmed.
 * A one-to-one mix would put both medians in the gap between the two
 * graphs' costs, where one operation more or less of either moves them.
 */
int
datasetOf(size_t i)
{
    return i % 3 == 2 ? 1 : 0;
}

class LiveUpdates final : public Workload
{
  public:
    using Workload::Workload;

    const char *name() const override { return "live_updates"; }

    std::string
    describe() const override
    {
        return "backends=[GCoD@bits=8] workers=1 writer=1 reader=1 "
               "(closed loops) kernel_threads=2 "
               "batching=FixedSize(max_batch=1) model=GCN "
               "datasets=Cora(unsharded):Pubmed(shards=4)=2:1 "
               "delta=8 edge toggles";
    }

    /** Writer + its pool helper + reader + the engine worker. */
    int busyThreads() const override { return 2 + kKernelThreads; }
    /**
     * The end-to-end metrics time the writer's closed loop. The reads
     * are cache hits of a few tens of microseconds; at tens of thousands
     * per second their ten-beyond tail sits at p99.99+, where a handful
     * of scheduler stalls decide its value. They are verified and
     * reported per layer (serve.request_*) instead.
     */
    int closedLoopClients() const override { return 1; }
    bool updatesArePrimary() const override { return true; }

    void
    setup() override
    {
        engine_ = makeEngine();
        for (int d = 0; d < 2; ++d) {
            keys_[d] = engine_->keyFor(kDatasets[d], "GCN");
            auto b = engine_->cache().get(keys_[d]).bundle;
            published_[d] = b->profile.nodes;
            history_[d].clear();
            argmax_[d].clear();
        }
        // Warm-up: the first update of a cold bundle seeds the
        // incremental state with a full pass; keep it out of the window.
        for (int d = 0; d < 2; ++d) {
            ServingEngine::UpdateResult r =
                applyDelta(d, mix(seed_, 0x77770000ull + uint64_t(d)));
            if (r.noop)
                fail(name(), "warm-up update", "delta resolved to a no-op");
            InferenceRequest q;
            q.dataset = kDatasets[d];
            InferenceReply rep = engine_->submit(q).get();
            if (!rep.ok())
                fail(name(), "warm-up read", rep.error);
        }
        nextUpdate_ = 0;
        nextRead_ = 0;
    }

    void teardown() override { engine_.reset(); }

    Determinism
    determinismScript() override
    {
        Determinism d;
        for (int i = 0; i < 3; ++i) {
            UpdateRecord u = update();
            const auto &r = u.result;
            std::ostringstream os;
            os << "U#" << u.index << " " << u.dataset << " noop=" << r.noop
               << " touched=" << r.touched << " dirty=" << r.dirtyRows
               << " recomputed=" << r.recomputedRows
               << " migrations=" << r.migrations
               << " reassigned=" << r.reassigned
               << " shards=" << r.affectedShards << " rebased=" << r.rebased;
            d.lines.push_back(os.str());
            d.counts["dyn.dirty_rows"] += r.dirtyRows;
            d.counts["dyn.recomputed_rows"] += r.recomputedRows;
            d.counts["dyn.migrations"] += r.migrations;
            d.counts["shard.affected_shards"] += r.affectedShards;
            d.counts["shard.rebases"] += r.rebased ? 1 : 0;
            for (int k = 0; k < 2; ++k) {
                OpRecord rec = read();
                if (!rec.reply.ok())
                    fail(name(), opName(rec), rec.reply.error);
                std::ostringstream rs;
                rs << "R#" << rec.index << " " << rec.request.dataset
                   << " node=" << rec.request.node << " "
                   << rec.reply.backend << " bits="
                   << rec.reply.executedBits
                   << " batch=" << rec.reply.batchSize
                   << " pred=" << rec.reply.prediction;
                d.lines.push_back(rs.str());
                d.count(rec.reply);
            }
        }
        return d;
    }

    Window
    run(double seconds) override
    {
        Window w;
        std::atomic<bool> stop{false};
        const size_t firstUpdate = nextUpdate_.load();
        w.begin = Clock::now();
        // The writer owns w.updates until it is joined; the reader (this
        // thread) watches its progress through nextUpdate_ only.
        // Failures on either side stop both loops and reach the caller.
        std::exception_ptr writerError, readerError;
        std::thread writer([&] {
            try {
                while (!stop.load())
                    w.updates.push_back(update());
            } catch (...) {
                writerError = std::current_exception();
                stop.store(true);
            }
        });
        try {
            while (!stop.load() &&
                   (secondsBetween(w.begin, Clock::now()) < seconds ||
                    w.ops.size() < kMinLatencySamples ||
                    nextUpdate_.load() - firstUpdate < kMinLatencySamples)) {
                w.ops.push_back(read());
                // Bound the recorder's memory on this fast read stream.
                if (tracing_ && w.ops.size() % kDrainEvery == 0)
                    rolled_.drain(*engine_);
            }
        } catch (...) {
            readerError = std::current_exception();
        }
        stop.store(true);
        writer.join();
        if (writerError)
            std::rethrow_exception(writerError);
        if (readerError)
            std::rethrow_exception(readerError);
        w.end = w.begin;
        for (const OpRecord &r : w.ops)
            w.end = std::max(w.end, r.done);
        for (const UpdateRecord &u : w.updates)
            w.end = std::max(w.end, u.done);
        return w;
    }

    void
    verify(const Window &w) override
    {
        std::lock_guard<std::mutex> lock(argmaxMu_);
        for (const OpRecord &r : w.ops) {
            if (!r.reply.ok())
                fail(name(), opName(r), "reply not ok: " + r.reply.error);
            if (r.reply.executedBits != kInt8)
                fail(name(), opName(r),
                     "executed at " + std::to_string(r.reply.executedBits) +
                         " bits");
            // The read was served by an epoch published between the two
            // version samples around it; its prediction must be that
            // epoch's argmax for the node.
            int d = std::strcmp(r.request.dataset, kDatasets[0]) == 0 ? 0 : 1;
            bool seen = false, match = false;
            for (auto it = argmax_[d].lower_bound(r.versionLo);
                 it != argmax_[d].end() && it->first <= r.versionHi; ++it) {
                seen = true;
                match |= it->second[size_t(r.request.node) %
                                    it->second.size()] == r.reply.prediction;
            }
            if (!seen)
                fail(name(), opName(r),
                     "no recorded epoch in versions [" +
                         std::to_string(r.versionLo) + ", " +
                         std::to_string(r.versionHi) + "]");
            if (!match)
                fail(name(), opName(r),
                     "prediction " + std::to_string(r.reply.prediction) +
                         " matches no epoch's peekLogits argmax in versions "
                         "[" +
                         std::to_string(r.versionLo) + ", " +
                         std::to_string(r.versionHi) + "]");
        }
        for (const UpdateRecord &u : w.updates)
            if (u.result.noop)
                fail(name(), "update #" + std::to_string(u.index),
                     "delta resolved to a no-op");
    }

    /** N streamed deltas must equal one combined delta, bit for bit. */
    void
    finalChecks() override
    {
        std::unique_ptr<ServingEngine> fresh = makeEngine();
        for (int d = 0; d < 2; ++d) {
            dyn::GraphDelta combined;
            for (const auto &toggles : history_[d])
                appendToggles(combined, toggles);
            ServingEngine::UpdateResult r =
                fresh->applyUpdate(keys_[d], combined);
            const std::string op = "combined delta of " +
                                   std::to_string(history_[d].size()) +
                                   " updates on " + kDatasets[d];
            if (r.noop)
                fail(name(), op, "resolved to a no-op");
            auto want = engine_->cache().peek(keys_[d]);
            auto got = fresh->cache().peek(keys_[d]);
            for (int bits : {32, kInt8}) {
                const Matrix &a = want->storedLogits.at(bits);
                const Matrix &b = got->storedLogits.at(bits);
                if (a.rows() != b.rows() || a.cols() != b.cols() ||
                    std::memcmp(a.data().data(), b.data().data(),
                                size_t(a.rows() * a.cols()) *
                                    sizeof(float)) != 0)
                    fail(name(), op,
                         std::to_string(bits) +
                             "-bit resident logits differ from a fresh "
                             "engine that applied the combined delta");
            }
        }
    }

    void
    setTracing(bool on) override
    {
        engine_->trace().setLevel(on ? obs::kTraceRequests : obs::kTraceOff);
        tracing_ = on;
    }

    SpanRollup
    rollup() override
    {
        rolled_.drain(*engine_);
        return rolled_;
    }

    double buildSeconds() const override
    {
        return engine_->cache().totalBuildSeconds();
    }

    ServingEngine &primary() override { return *engine_; }

    std::shared_ptr<const ArtifactBundle>
    resident(const std::string &dataset, const std::string &family) override
    {
        if (family != "GCN")
            return nullptr;
        return engine_->cache().peek(engine_->keyFor(dataset, family));
    }

    bool reportsUpdates() const override { return true; }

    void
    layerMetrics(const Window &w, Report &rep) override
    {
        std::vector<double> build;
        double dirty = 0.0, recomputed = 0.0, base = 0.0, migrations = 0.0;
        double shards = 0.0;
        size_t sharded = 0, rebases = 0;
        for (const UpdateRecord &u : w.updates) {
            const auto &r = u.result;
            build.push_back(1e3 * r.seconds);
            dirty += double(r.dirtyRows);
            recomputed += double(r.recomputedRows);
            migrations += double(r.migrations);
            int d = u.dataset == kDatasets[0] ? 0 : 1;
            base += double(nodes_[d]) * double(layers_);
            if (d == 1) {
                shards += double(r.affectedShards);
                ++sharded;
                rebases += r.rebased ? 1 : 0;
            }
        }
        size_t n = w.updates.size();
        const std::string note = "window updates";
        rep.add("dyn.update_build_ms", median(build), "ms", n,
                "UpdateResult.seconds; " + note);
        rep.add("dyn.dirty_rows", dirty / double(n), "count", n, note);
        rep.add("dyn.recomputed_rows", recomputed / double(n), "count", n,
                note);
        rep.add("dyn.recompute_ratio", recomputed / base, "ratio", n,
                "base = nodes x layers per update");
        rep.add("dyn.migrations", migrations / double(n), "count", n, note);
        rep.add("shard.affected_shards",
                sharded ? shards / double(sharded) : 0.0, "count", sharded,
                "per sharded update");
        rep.add("shard.rebases", double(rebases), "count", sharded,
                "sharded updates that re-partitioned");
    }

  private:
    std::unique_ptr<ServingEngine>
    makeEngine() const
    {
        ServeOptions o = baseOptions({"GCoD@bits=8"}, 1, 1);
        o.shards = kShards;
        o.shardMinNodes = kShardMinNodes;
        return std::make_unique<ServingEngine>(std::move(o));
    }

    static std::string
    opName(const OpRecord &r)
    {
        return "read #" + std::to_string(r.index) + " (" +
               r.request.dataset + " node " +
               std::to_string(r.request.node) + ")";
    }

    /**
     * Apply one seeded delta to dataset @p d, record its toggles for the
     * combined-delta check and the new epoch's argmax for the read oracle.
     */
    ServingEngine::UpdateResult
    applyDelta(int d, uint64_t seed, UpdateRecord *rec = nullptr)
    {
        std::vector<EdgeToggle> toggles;
        {
            auto bundle = engine_->cache().peek(keys_[d]);
            toggles = drawToggles(bundle->synth.graph, kDeltaEdges, seed);
            nodes_[d] = bundle->synth.graph.numNodes();
            layers_ = bundle->spec.layers.size();
        }
        dyn::GraphDelta delta;
        appendToggles(delta, toggles);
        history_[d].push_back(std::move(toggles));
        Clock::time_point t0 = Clock::now();
        ServingEngine::UpdateResult r = engine_->applyUpdate(keys_[d], delta);
        Clock::time_point t1 = Clock::now();
        if (rec != nullptr) {
            rec->start = t0;
            rec->done = t1;
            rec->result = r;
        }
        // Only this thread publishes, so the resident epoch is the one
        // applyUpdate just installed.
        auto bundle = engine_->cache().peek(keys_[d]);
        uint64_t version = engine_->cache().residentVersion(keys_[d]);
        const Matrix &logits = bundle->storedLogits.at(kInt8);
        std::vector<int> pred(size_t(logits.rows()));
        for (int64_t i = 0; i < logits.rows(); ++i)
            pred[size_t(i)] = argmaxRow(logits, NodeId(i));
        std::lock_guard<std::mutex> lock(argmaxMu_);
        argmax_[d][version] = std::move(pred);
        return r;
    }

    UpdateRecord
    update()
    {
        UpdateRecord u;
        u.index = nextUpdate_.fetch_add(1);
        int d = datasetOf(u.index);
        u.dataset = kDatasets[d];
        applyDelta(d, mix(seed_, 0x55550000ull + u.index), &u);
        return u;
    }

    OpRecord
    read()
    {
        OpRecord r;
        r.index = nextRead_++;
        int d = datasetOf(r.index);
        r.request.dataset = kDatasets[d];
        r.request.node = NodeId(mix(seed_ ^ 0x3c3c3c3cull, r.index) %
                                uint64_t(published_[d]));
        r.versionLo = engine_->cache().residentVersion(keys_[d]);
        r.submitted = Clock::now();
        r.reply = Reply(engine_->submit(r.request.make()).get());
        r.done = Clock::now();
        r.versionHi = engine_->cache().residentVersion(keys_[d]);
        return r;
    }

    std::unique_ptr<ServingEngine> engine_;
    ArtifactKey keys_[2];
    NodeId published_[2] = {1, 1};
    NodeId nodes_[2] = {1, 1};
    size_t layers_ = 1;
    /** Toggles of every applied delta per dataset, in order. */
    std::vector<std::vector<EdgeToggle>> history_[2];
    std::mutex argmaxMu_;
    /** Per published version: predicted class of every stand-in row. */
    std::map<uint64_t, std::vector<int>> argmax_[2];
    std::atomic<size_t> nextUpdate_{0};
    size_t nextRead_ = 0;
    bool tracing_ = false;
};

} // namespace

std::unique_ptr<Workload>
makeLiveUpdates(uint64_t seed)
{
    return std::make_unique<LiveUpdates>(seed);
}

} // namespace perfbench
