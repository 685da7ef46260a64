/**
 * @file
 * zoo_refresh: one client sends bursts of full-batch requests over all
 * five model families on Cora, at fp32 and int8. Before each burst every
 * artifact's epoch is republished (same bundle, new version), so each
 * burst pays one interpreter pass per family and precision and memo hits
 * for the rest.
 *
 * The two precisions are two engines with one backend each ("GCoD" and
 * "GCoD@bits=8"), so the precision of every request is fixed by which
 * engine it is sent to, never by load-dependent routing.
 */
#include "bench.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "sim/rng.hpp"

namespace perfbench {

using namespace gcod;
using namespace gcod::serve;

namespace {

constexpr int kPrecisions = 2;
constexpr int kBits[kPrecisions] = {32, kInt8};
constexpr int kPairs = 5 * kPrecisions;
/** Requests per (family, precision) in a burst; two batches of four. */
constexpr int kPerPair = 8;
constexpr size_t kMaxBatch = 4;
/** Client poll period while a burst is outstanding. */
constexpr auto kPoll = std::chrono::microseconds(200);

class ZooRefresh final : public Workload
{
  public:
    using Workload::Workload;

    const char *name() const override { return "zoo_refresh"; }

    std::string
    describe() const override
    {
        return "engines=2 (backends=[GCoD] fp32, [GCoD@bits=8] int8) "
               "workers=1 per engine clients=1 (bursts of 80, "
               "republish before each) kernel_threads=2 "
               "batching=FixedSize(max_batch=4) dataset=Cora "
               "families=GCN,GraphSAGE,GAT,GIN,ResGCN";
    }

    int busyThreads() const override
    {
        return kPrecisions + kKernelThreads - 1;
    }
    int closedLoopClients() const override { return 0; }

    void
    setup() override
    {
        for (int p = 0; p < kPrecisions; ++p)
            engines_[p] = std::make_unique<ServingEngine>(baseOptions(
                {p == 0 ? "GCoD" : "GCoD@bits=8"}, 1, kMaxBatch));
        for (int p = 0; p < kPrecisions; ++p)
            for (const char *fam : kFamilies)
                engines_[p]->cache().get(engines_[p]->keyFor("Cora", fam));
        published_ = engines_[0]
                         ->cache()
                         .peek(engines_[0]->keyFor("Cora", kFamilies[0]))
                         ->profile.nodes;
        // Warm-up: one pass per family and precision.
        for (int p = 0; p < kPrecisions; ++p) {
            std::vector<std::future<InferenceReply>> futs;
            for (const char *fam : kFamilies) {
                InferenceRequest q;
                q.model = fam;
                futs.push_back(engines_[p]->submit(q));
            }
            engines_[p]->drain();
            for (auto &f : futs) {
                InferenceReply r = f.get();
                if (!r.ok())
                    fail(name(), "warm-up", r.error);
            }
        }
        nextBurst_ = 0;
    }

    void
    teardown() override
    {
        for (auto &e : engines_)
            e.reset();
    }

    Determinism
    determinismScript() override
    {
        std::deque<OpRecord> recs;
        burst(recs);
        Determinism d;
        for (const OpRecord &r : recs) {
            if (!r.reply.ok())
                fail(name(), opName(r), r.reply.error);
            std::ostringstream os;
            os << "#" << r.index << " " << r.request.model << "/"
               << kBits[r.engine] << " node=" << r.request.node << " "
               << r.reply.backend << " bits=" << r.reply.executedBits
               << " batch=" << r.reply.batchSize
               << " pred=" << r.reply.prediction;
            d.lines.push_back(os.str());
            d.count(r.reply);
        }
        return d;
    }

    Window
    run(double seconds) override
    {
        Window w;
        w.begin = Clock::now();
        do
            burst(w.ops);
        while (secondsBetween(w.begin, Clock::now()) < seconds);
        w.end = w.begin;
        for (const OpRecord &r : w.ops)
            w.end = std::max(w.end, r.done);
        return w;
    }

    void
    verify(const Window &w) override
    {
        // Republishing the same bundle never changes its logits, so every
        // reply of the run must match the resident pass.
        std::shared_ptr<const Matrix> logits[kPrecisions][5];
        for (int p = 0; p < kPrecisions; ++p)
            for (int f = 0; f < 5; ++f)
                logits[p][f] = engines_[p]->peekLogits(
                    engines_[p]->keyFor("Cora", kFamilies[f]), kBits[p]);
        for (const OpRecord &r : w.ops) {
            if (!r.reply.ok())
                fail(name(), opName(r), "reply not ok: " + r.reply.error);
            if (r.reply.executedBits != kBits[r.engine])
                fail(name(), opName(r),
                     "executed at " + std::to_string(r.reply.executedBits) +
                         " bits");
            int f = int(std::find_if(std::begin(kFamilies),
                                     std::end(kFamilies),
                                     [&](const char *s) {
                                         return std::strcmp(r.request.model, s) == 0;
                                     }) -
                        std::begin(kFamilies));
            int expect = argmaxRow(*logits[r.engine][f], r.request.node);
            if (r.reply.prediction != expect)
                fail(name(), opName(r),
                     "reply predicts class " +
                         std::to_string(r.reply.prediction) +
                         " but argmax of peekLogits is " +
                         std::to_string(expect));
        }
    }

    void
    setTracing(bool on) override
    {
        for (auto &e : engines_)
            e->trace().setLevel(on ? obs::kTraceRequests : obs::kTraceOff);
    }

    SpanRollup
    rollup() override
    {
        for (auto &e : engines_)
            rolled_.drain(*e);
        return rolled_;
    }

    double
    buildSeconds() const override
    {
        double s = 0.0;
        for (const auto &e : engines_)
            s += e->cache().totalBuildSeconds();
        return s;
    }

    ServingEngine &primary() override { return *engines_[1]; }

    std::shared_ptr<const ArtifactBundle>
    resident(const std::string &dataset, const std::string &family) override
    {
        if (dataset != "Cora")
            return nullptr;
        return engines_[1]->cache().peek(engines_[1]->keyFor(dataset, family));
    }

    void layerMetrics(const Window &, Report &) override {}

  private:
    static std::string
    opName(const OpRecord &r)
    {
        return "request #" + std::to_string(r.index) + " (" +
               r.request.model + " at " + std::to_string(kBits[r.engine]) +
               " bits, node " + std::to_string(r.request.node) + ")";
    }

    /**
     * One burst: republish every artifact, submit kPerPair requests per
     * (family, precision) round-robin, then collect every reply, stamping
     * each within kPoll of its future becoming ready.
     */
    void
    burst(std::deque<OpRecord> &out)
    {
        const size_t b = nextBurst_++;
        for (int p = 0; p < kPrecisions; ++p)
            for (const char *fam : kFamilies) {
                ArtifactKey key = engines_[p]->keyFor("Cora", fam);
                engines_[p]->publishArtifact(key,
                                             engines_[p]->cache().peek(key));
            }
        const size_t first = out.size();
        std::vector<std::future<InferenceReply>> futs;
        for (int r = 0; r < kPerPair; ++r)
            for (int pair = 0; pair < kPairs; ++pair) {
                OpRecord rec;
                rec.index = b * kPairs * kPerPair + size_t(r * kPairs + pair);
                rec.engine = pair % kPrecisions;
                rec.request.model = kFamilies[pair / kPrecisions];
                Rng draw(mix(seed_, rec.index));
                rec.request.node = NodeId(draw.uniformInt(0, published_ - 1));
                rec.submitted = Clock::now();
                futs.push_back(engines_[rec.engine]->submit(rec.request.make()));
                out.push_back(std::move(rec));
            }
        // kPerPair is a multiple of kMaxBatch: every batch leaves on its
        // count, none waits for a flush or a clock.
        static_assert(kPerPair % kMaxBatch == 0, "partial batch in a burst");
        std::vector<bool> ready(futs.size(), false);
        size_t left = futs.size();
        size_t oldest = 0;
        while (left > 0) {
            while (ready[oldest])
                ++oldest;
            futs[oldest].wait_for(kPoll);
            Clock::time_point now = Clock::now();
            for (size_t i = oldest; i < futs.size(); ++i) {
                if (ready[i] || futs[i].wait_for(std::chrono::seconds(0)) !=
                                    std::future_status::ready)
                    continue;
                out[first + i].done = now;
                out[first + i].reply = Reply(futs[i].get());
                ready[i] = true;
                --left;
            }
        }
    }

    std::unique_ptr<ServingEngine> engines_[kPrecisions];
    NodeId published_ = 1;
    size_t nextBurst_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeZooRefresh(uint64_t seed)
{
    return std::make_unique<ZooRefresh>(seed);
}

} // namespace perfbench
