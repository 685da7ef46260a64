#include "bench.hpp"

#include <cctype>
#include <iomanip>
#include <mutex>
#include <set>

#include "dyn/delta.hpp"
#include "nn/neighbor_sampler.hpp"
#include "sim/rng.hpp"

namespace perfbench {

using namespace gcod;
using namespace gcod::serve;

const char *const kFamilies[5] = {"GCN", "GraphSAGE", "GAT", "GIN",
                                  "ResGCN"};

uint64_t
mix(uint64_t a, uint64_t b)
{
    uint64_t z = a + 0x9e3779b97f4a7c15ull * (b + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

void
fail(const std::string &workload, const std::string &op,
     const std::string &what)
{
    throw CheckFailure(workload + ": " + op + ": " + what);
}

int
argmaxRow(const Matrix &logits, NodeId node)
{
    int64_t rows = logits.rows();
    int64_t row = ((int64_t(node) % rows) + rows) % rows;
    const float *p = logits.row(row);
    int best = 0;
    for (int64_t c = 1; c < logits.cols(); ++c)
        if (p[c] > p[best])
            best = int(c);
    return best;
}

void
Report::add(const std::string &name, double value, const std::string &unit,
            size_t n, const std::string &note)
{
    metrics.push_back(Metric{name, value, unit, n, note});
}

void
Report::print(std::ostream &os) const
{
    for (const Metric &m : metrics) {
        os << "metric " << std::left << std::setw(34) << m.name << " = "
           << std::setprecision(6) << m.value << " " << m.unit
           << "  (n=" << m.n;
        if (!m.note.empty())
            os << "; " << m.note;
        os << ")\n";
    }
}

InferenceRequest
Request::make() const
{
    InferenceRequest q;
    q.dataset = dataset;
    q.model = model;
    q.node = node;
    q.sampleFanout = sampleFanout;
    q.sampleSeed = sampleSeed;
    return q;
}

namespace {

/** Stable storage for the few distinct backend labels of a run. */
const char *
intern(const std::string &s)
{
    static std::mutex mu;
    static std::set<std::string> labels;
    std::lock_guard<std::mutex> lock(mu);
    return labels.insert(s).first->c_str();
}

} // namespace

Reply::Reply(const InferenceReply &r)
    : backend(intern(r.backend)), batchSize(r.batchSize),
      executedBits(r.executedBits), prediction(r.prediction),
      queueSeconds(r.queueSeconds), serviceSeconds(r.serviceSeconds),
      cacheHit(r.cacheHit), shed(r.shed), timedOut(r.timedOut),
      error(r.error)
{
}

void
SpanRollup::drain(ServingEngine &engine)
{
    // snapshot() then clear(): a span recorded between the two calls is
    // lost, which only undercounts the totals by a handful of spans.
    std::vector<obs::TraceSpan> spans = engine.trace().snapshot();
    engine.trace().clear();
    for (const obs::TraceSpan &s : spans) {
        if (s.name == "route") {
            ++routes;
            routeNs += double(s.durNs);
        } else if (s.name == "host.exec") {
            ++memoLookups;
            for (const auto &[k, v] : s.attrs)
                if (k == "source" && (v == "memo" || v == "store"))
                    ++memoHits;
        }
    }
}

void
Determinism::count(const Reply &reply)
{
    // Backend labels are sanitized into metric-name characters; the
    // sharded fleet label lists every chip, so it collapses to one name.
    std::string backend = reply.backend;
    if (backend.rfind("shard[", 0) == 0)
        backend = "shard_fleet";
    for (char &c : backend)
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_')
            c = '_';
    ++counts["serve.dispatch." + backend];
    ++counts["serve.exec_bits." + std::to_string(reply.executedBits)];
    ++counts["serve.batch_size." + std::to_string(reply.batchSize)];
}

uint64_t
Determinism::hash() const
{
    uint64_t h = 0xcbf29ce484222325ull;
    auto feed = [&h](const std::string &s) {
        for (unsigned char c : s) {
            h ^= c;
            h *= 0x100000001b3ull;
        }
        h ^= 0xff;
        h *= 0x100000001b3ull;
    };
    for (const std::string &l : lines)
        feed(l);
    for (const auto &[k, v] : counts)
        feed(k + "=" + std::to_string(v));
    return h;
}

SampledReplay
replaySampled(const ArtifactBundle &bundle, int fanout, uint64_t seed,
              NodeId node)
{
    SampledReplay r;
    Clock::time_point t0 = Clock::now();
    SampledExecution se = buildSampledExecution(
        bundle.hostRecipe, bundle.synth.graph, fanout, seed);
    Clock::time_point t1 = Clock::now();
    QuantizedGnn q = quantizeSampled(se, bundle.quantized.at(kInt8));
    Clock::time_point t2 = Clock::now();
    Matrix logits = quantizedForwardMixed(q, bundle.hostFeatures);
    Clock::time_point t3 = Clock::now();
    r.prediction = argmaxRow(logits, node);
    r.buildMs = 1e3 * secondsBetween(t0, t1);
    r.quantizeMs = 1e3 * secondsBetween(t1, t2);
    r.forwardMs = 1e3 * secondsBetween(t2, t3);
    for (const CsrMatrix &op : se.ops) {
        r.rows += size_t(op.rows());
        r.nnz += size_t(op.nnz());
    }
    return r;
}

ServeOptions
baseOptions(std::vector<std::string> backends, size_t workers,
            size_t max_batch)
{
    ServeOptions o;
    o.backends = std::move(backends);
    o.workers = workers;
    o.kernelThreads = kKernelThreads;
    // Count-only batching: a batch leaves when max_batch requests wait
    // or on drain(), never on a wall-clock deadline.
    o.batching.policy = BatchPolicy::FixedSize;
    o.batching.maxBatch = max_batch;
    o.cacheCapacity = 16;
    o.traceLevel = obs::kTraceOff;
    return o;
}

std::vector<EdgeToggle>
drawToggles(const Graph &g, int count, uint64_t seed)
{
    Rng rng(seed);
    std::vector<EdgeToggle> out;
    NodeId n = g.numNodes();
    for (int i = 0; i < count; ++i) {
        auto u = NodeId(rng.uniformInt(0, n - 1));
        auto v = NodeId(rng.uniformInt(0, n - 1));
        if (u == v)
            continue;
        out.push_back({g.adjacency().at(u, v) == 0.0f, u, v});
    }
    return out;
}

void
appendToggles(dyn::GraphDelta &delta, const std::vector<EdgeToggle> &toggles)
{
    for (const EdgeToggle &t : toggles) {
        if (t.insert)
            delta.insertEdge(t.u, t.v);
        else
            delta.removeEdge(t.u, t.v);
    }
}

} // namespace perfbench
