/**
 * @file
 * sampled_sage: a closed loop of two clients sending neighbor-sampled
 * GraphSAGE requests (fresh sample seed per request, fanout 5 or 15)
 * over the Cora and Pubmed stand-ins through one int8 backend. Each
 * request pays a full-graph sampled pass, so nn and tensor do nearly all
 * the work and serve almost none.
 */
#include "bench.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <exception>
#include <mutex>
#include <sstream>
#include <thread>
#include <tuple>

#include "sim/rng.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace gcod;
using namespace gcod::serve;

namespace {

const char *const kDatasets[2] = {"Cora", "Pubmed"};

/**
 * One block of the request stream, as (dataset, fanout). Cora carries
 * two thirds of the requests so the latency median sits inside the Cora
 * cluster rather than in the gap between the two graph sizes, where a
 * one-request shift in the mix would move it.
 */
constexpr int kBlock[6][2] = {{0, 5}, {0, 15}, {1, 5},
                              {0, 5}, {0, 15}, {1, 15}};

/** Direct replays per window; the oracle spreads them evenly. */
constexpr size_t kReplays = 10;

class SampledSage final : public Workload
{
  public:
    static constexpr int kClients = 2;
    static constexpr size_t kWorkers = 2;

    using Workload::Workload;

    const char *name() const override { return "sampled_sage"; }

    std::string
    describe() const override
    {
        return "backends=[GCoD@bits=8] workers=2 clients=2 (closed loop) "
               "kernel_threads=2 batching=FixedSize(max_batch=1) "
               "model=GraphSAGE datasets=Cora:Pubmed=2:1 fanouts=5,15";
    }

    int busyThreads() const override
    {
        return int(kWorkers) + kKernelThreads - 1;
    }
    int closedLoopClients() const override { return kClients; }

    void
    setup() override
    {
        engine_ = std::make_unique<ServingEngine>(
            baseOptions({"GCoD@bits=8"}, kWorkers, 1));
        for (int d = 0; d < 2; ++d) {
            ArtifactKey key = engine_->keyFor(kDatasets[d], "GraphSAGE");
            published_[d] = engine_->cache().get(key).bundle->profile.nodes;
        }
        // Every set-up replays the stream from its start, so the
        // determinism script and the first window see the same requests.
        next_[0] = next_[1] = 0;
        // Warm-up: one sampled pass per graph outside the window.
        for (int d = 0; d < 2; ++d) {
            Request q = request({d, 5, 0, mix(seed_, 0x3a3a + d)});
            InferenceReply r = engine_->submit(q.make()).get();
            if (!r.ok())
                fail(name(), "warm-up", r.error);
        }
    }

    void teardown() override { engine_.reset(); }

    Determinism
    determinismScript() override
    {
        constexpr size_t kOpsPerClient = 3;
        std::deque<OpRecord> recs = drive(0.0, kOpsPerClient);
        Determinism d;
        std::sort(recs.begin(), recs.end(),
                  [](const OpRecord &a, const OpRecord &b) {
                      return std::tie(a.client, a.index) <
                             std::tie(b.client, b.index);
                  });
        for (const OpRecord &r : recs) {
            if (!r.reply.ok())
                fail(name(), opName(r), r.reply.error);
            std::ostringstream os;
            os << "c" << r.client << "#" << r.index << " "
               << r.request.dataset << " f" << r.request.sampleFanout
               << " node=" << r.request.node << " " << r.reply.backend
               << " bits=" << r.reply.executedBits
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
        w.ops = drive(seconds, 0);
        w.end = w.begin;
        for (const OpRecord &r : w.ops)
            w.end = std::max(w.end, r.done);
        return w;
    }

    void
    verify(const Window &w) override
    {
        for (const OpRecord &r : w.ops) {
            if (!r.reply.ok())
                fail(name(), opName(r), "reply not ok: " + r.reply.error);
            if (r.reply.executedBits != kInt8 ||
                std::strcmp(r.reply.backend, "GCoD@bits=8") != 0)
                fail(name(), opName(r),
                     "served by " + std::string(r.reply.backend) + " at " +
                         std::to_string(r.reply.executedBits) +
                         " bits, expected GCoD@bits=8 at 8");
        }
        // Direct replays of an even spread of the window's requests; the
        // traced run's nn timings come from these same replays.
        std::vector<const OpRecord *> order;
        for (const OpRecord &r : w.ops)
            order.push_back(&r);
        std::sort(order.begin(), order.end(),
                  [](const OpRecord *a, const OpRecord *b) {
                      return a->submitted < b->submitted;
                  });
        size_t stride = std::max<size_t>(1, order.size() / kReplays);
        replays_.clear();
        for (size_t i = 0; i < order.size(); i += stride) {
            const OpRecord &r = *order[i];
            auto bundle = engine_->cache().peek(
                engine_->keyFor(r.request.dataset, "GraphSAGE"));
            SampledReplay rep =
                replaySampled(*bundle, r.request.sampleFanout,
                              r.request.sampleSeed, r.request.node);
            if (rep.prediction != r.reply.prediction)
                fail(name(), opName(r),
                     "reply predicts class " +
                         std::to_string(r.reply.prediction) +
                         " but the direct sampled replay predicts " +
                         std::to_string(rep.prediction));
            replays_.push_back(rep);
        }
    }

    void
    setTracing(bool on) override
    {
        engine_->trace().setLevel(on ? obs::kTraceRequests : obs::kTraceOff);
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
        if (family != "GraphSAGE")
            return nullptr;
        return engine_->cache().peek(engine_->keyFor(dataset, family));
    }

    bool reportsSampled() const override { return true; }

    void
    layerMetrics(const Window &, Report &rep) override
    {
        std::vector<double> build, quant, fwd;
        double rows = 0.0, nnz = 0.0;
        for (const SampledReplay &r : replays_) {
            build.push_back(r.buildMs);
            quant.push_back(r.quantizeMs);
            fwd.push_back(r.forwardMs);
            rows += double(r.rows);
            nnz += double(r.nnz);
        }
        size_t n = replays_.size();
        const std::string note = "direct replay of window requests";
        rep.add("nn.sample_build_ms", median(build), "ms", n, note);
        rep.add("nn.sample_quantize_ms", median(quant), "ms", n, note);
        rep.add("nn.sampled_forward_ms", median(fwd), "ms", n, note);
        rep.add("nn.sampled_rows", rows / double(n), "count", n,
                "operator rows built per request");
        rep.add("nn.sampled_nnz", nnz / double(n), "count", n,
                "operator nonzeros built per request");
    }

  private:
    struct SampledOp
    {
        int dataset = 0;
        int fanout = 5;
        NodeId node = 0;
        uint64_t sampleSeed = 0;
    };

    /** Op @p i of client @p c: a seeded shuffle of each six-op block. */
    SampledOp
    opAt(int c, size_t i) const
    {
        std::array<int, 6> perm = {0, 1, 2, 3, 4, 5};
        Rng shuffle(mix(mix(seed_, uint64_t(c)), i / 6));
        for (int k = 5; k > 0; --k)
            std::swap(perm[size_t(k)],
                      perm[size_t(shuffle.uniformInt(0, k))]);
        const int *slot = kBlock[perm[i % 6]];
        Rng draw(mix(mix(seed_ ^ 0x5a5a5a5aull, uint64_t(c)), i));
        SampledOp op;
        op.dataset = slot[0];
        op.fanout = slot[1];
        op.node = NodeId(draw.uniformInt(0, published_[op.dataset] - 1));
        op.sampleSeed = mix(seed_, 0x1000000ull + uint64_t(c) * (1ull << 40) + i);
        return op;
    }

    static Request
    request(const SampledOp &op)
    {
        Request q;
        q.dataset = kDatasets[op.dataset];
        q.model = "GraphSAGE";
        q.node = op.node;
        q.sampleFanout = op.fanout;
        q.sampleSeed = op.sampleSeed;
        return q;
    }

    static std::string
    opName(const OpRecord &r)
    {
        return "request c" + std::to_string(r.client) + "#" +
               std::to_string(r.index) + " (" + r.request.dataset +
               " fanout=" + std::to_string(r.request.sampleFanout) +
               " seed=" + std::to_string(r.request.sampleSeed) + ")";
    }

    /**
     * Closed loop of kClients threads. Runs until @p seconds have passed
     * and kMinLatencySamples requests completed, or, when @p per_client
     * is nonzero, exactly that many requests per client. Each client
     * continues its own op stream across calls.
     */
    std::deque<OpRecord>
    drive(double seconds, size_t per_client)
    {
        std::mutex mu;
        std::deque<OpRecord> out;
        std::atomic<size_t> completed{0};
        Clock::time_point t0 = Clock::now();
        std::exception_ptr error;
        auto loop = [&](int c) {
            for (size_t k = 0;; ++k) {
                if (per_client != 0 ? k >= per_client
                                    : secondsBetween(t0, Clock::now()) >=
                                              seconds &&
                                          completed.load() >=
                                              kMinLatencySamples)
                    break;
                OpRecord r;
                r.client = c;
                r.index = next_[c]++;
                r.request = request(opAt(c, r.index));
                r.submitted = Clock::now();
                r.reply = Reply(engine_->submit(r.request.make()).get());
                r.done = Clock::now();
                completed.fetch_add(1);
                std::lock_guard<std::mutex> lock(mu);
                out.push_back(std::move(r));
            }
        };
        // A failure in a client thread is forwarded to the caller, not
        // allowed to terminate the process.
        auto client = [&](int c) {
            try {
                loop(c);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mu);
                error = std::current_exception();
            }
        };
        std::vector<std::thread> threads;
        for (int c = 0; c < kClients; ++c)
            threads.emplace_back(client, c);
        for (std::thread &t : threads)
            t.join();
        if (error)
            std::rethrow_exception(error);
        return out;
    }

    std::unique_ptr<ServingEngine> engine_;
    NodeId published_[2] = {1, 1};
    size_t next_[kClients] = {0, 0};
    std::vector<SampledReplay> replays_;
};

} // namespace

std::unique_ptr<Workload>
makeSampledSage(uint64_t seed)
{
    return std::make_unique<SampledSage>(seed);
}

} // namespace perfbench
