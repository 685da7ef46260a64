/**
 * @file
 * Per-layer sweep of a traced run. Every number here comes from timing a
 * layer's public functions from this file, over the workload's resident
 * artifacts where it serves them and over fresh builds of the same
 * artifacts where it does not, so every traced run reports every layer.
 */
#include "bench.hpp"

#include <cctype>

#include "dyn/delta.hpp"
#include "obs/kernel_profile.hpp"
#include "serve/incremental.hpp"
#include "shard/executor.hpp"
#include "shard/scheduler.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace gcod;
using namespace gcod::serve;

namespace {

constexpr int kReps = 3;

/** Kernel zones whose busy time the sweep reports (tensor layer). */
const char *const kZones[] = {"matmul", "spmmRowWise", "qspmmMixed",
                              "rowQuantize", "qmatmulRowScaled"};

/**
 * Work of one forward, computed from the recipe's shapes (not measured):
 * floating-point or integer operations, and bytes of operands read plus
 * results written, each touched once, at fp32 and at int8 (8-bit
 * activations and weights, 16-bit operator values, 32-bit indices and
 * outputs).
 */
struct Work
{
    double ops = 0.0;
    double bytesFp32 = 0.0;
    double bytesInt8 = 0.0;
};

Work
recipeWork(const ForwardRecipe &r, double rows, int64_t input_cols)
{
    Work w;
    int64_t width = input_cols;
    for (size_t l = 0; l < r.layers.size(); ++l) {
        std::vector<int64_t> slot = layerSlotWidths(r, l, width);
        for (const OpStep &op : r.layers[l].ops) {
            double in = double(slot[size_t(op.in)]);
            double out = double(slot[size_t(op.out)]);
            double nnz = op.opIndex >= 0
                             ? double(r.operators[size_t(op.opIndex)]->nnz())
                             : 0.0;
            switch (op.kind) {
            case OpKind::GEMM:
                w.ops += 2.0 * rows * in * out;
                w.bytesFp32 += 4.0 * (rows * in + in * out + rows * out);
                w.bytesInt8 += rows * in + in * out + 4.0 * rows * out;
                break;
            case OpKind::SpMM:
                w.ops += 2.0 * nnz * in;
                w.bytesFp32 += 8.0 * nnz + 4.0 * (rows * in + rows * out);
                w.bytesInt8 += 6.0 * nnz + rows * in + 4.0 * rows * out;
                break;
            case OpKind::AttentionScore:
                w.ops += nnz * op.heads * (2.0 * op.headDim + 4.0);
                w.bytesFp32 += 8.0 * nnz + 4.0 * (rows * in + rows * out);
                w.bytesInt8 += 8.0 * nnz + 4.0 * (rows * in + rows * out);
                break;
            case OpKind::MaxAgg:
                w.ops += nnz * in;
                w.bytesFp32 += 8.0 * nnz + 4.0 * (rows * in + rows * out);
                w.bytesInt8 += 8.0 * nnz + 4.0 * (rows * in + rows * out);
                break;
            case OpKind::Readout:
                break;
            default:
                w.ops += rows * out;
                w.bytesFp32 += 4.0 * rows * (in + out);
                w.bytesInt8 += 4.0 * rows * (in + out);
                break;
            }
        }
        width = slot[size_t(r.layers[l].ops.back().out)];
    }
    return w;
}

double
msSince(Clock::time_point t0)
{
    return 1e3 * secondsBetween(t0, Clock::now());
}

std::string
lower(std::string s)
{
    for (char &c : s)
        c = char(std::tolower(static_cast<unsigned char>(c)));
    return s;
}

} // namespace

void
layerSweep(Workload &w, uint64_t seed, Report &rep)
{
    const GcodOptions gopts;
    auto bundleFor = [&](const std::string &dataset, const std::string &fam,
                         bool sharded) {
        std::shared_ptr<const ArtifactBundle> b = w.resident(dataset, fam);
        if (b != nullptr && b->quantized.count(kInt8) != 0 &&
            (b->sharded != nullptr) == sharded)
            return b;
        ArtifactKey key{dataset, fam, hashGcodOptions(gopts)};
        return buildArtifact(key, gopts, 0.0, 42, sharded ? kShards : 0,
                             kShardMinNodes, {kInt8});
    };

    // nn + tensor: every family at both precisions, with the kernel
    // profiler attached to this loop only.
    Work total;
    double fp32Ms = 0.0, int8Ms = 0.0;
    std::vector<double> simulateUs;
    obs::KernelProfiler prof;
    prof.enable();
    for (const char *fam : kFamilies) {
        std::shared_ptr<const ArtifactBundle> b = bundleFor("Cora", fam, false);
        std::vector<double> f32, f8;
        for (int i = 0; i < kReps; ++i) {
            Clock::time_point t0 = Clock::now();
            Matrix a = referenceForward(b->hostRecipe, b->hostFeatures);
            f32.push_back(msSince(t0));
            t0 = Clock::now();
            Matrix q = quantizedForwardMixed(b->quantized.at(kInt8),
                                             b->hostFeatures);
            f8.push_back(msSince(t0));
        }
        const std::string base = "nn.forward_ms." + lower(fam);
        const std::string note = "Cora, median of 3";
        rep.add(base + ".fp32", median(f32), "ms", kReps, note);
        rep.add(base + ".int8", median(f8), "ms", kReps, note);
        fp32Ms += median(f32);
        int8Ms += median(f8);
        Work wk = recipeWork(b->hostRecipe, double(b->hostFeatures.rows()),
                             b->hostFeatures.cols());
        total.ops += wk.ops;
        total.bytesFp32 += wk.bytesFp32;
        total.bytesInt8 += wk.bytesInt8;
    }
    prof.disable();
    std::map<std::string, obs::ZoneStats> zones = prof.zones();
    for (const char *z : kZones) {
        auto it = zones.find(z);
        double s = it == zones.end() ? 0.0 : it->second.seconds;
        rep.add(std::string("tensor.zone.") + z + "_ms", 1e3 * s / kReps,
                "ms", it == zones.end() ? 0 : it->second.tasks,
                "pool busy time per five-family fp32+int8 sweep");
    }
    const std::string computed = "computed from recipe shapes, not measured";
    rep.add("tensor.gflops.fp32", total.ops / (fp32Ms * 1e6), "GFLOP/s", 5,
            "recipe operations (computed) / measured fp32 forward time");
    rep.add("tensor.gflops.int8", total.ops / (int8Ms * 1e6), "GFLOP/s", 5,
            "recipe operations (computed) / measured int8 forward time");
    rep.add("tensor.mbytes_per_forward.fp32", total.bytesFp32 / 5e6, "MB", 5,
            computed);
    rep.add("tensor.mbytes_per_forward.int8", total.bytesInt8 / 5e6, "MB", 5,
            computed);

    // accel: host time of the cost model for one pass of each family.
    BackendRouter &router = w.primary().router();
    for (const char *fam : kFamilies) {
        std::shared_ptr<const ArtifactBundle> b = bundleFor("Cora", fam, false);
        for (int i = 0; i < kReps; ++i) {
            Clock::time_point t0 = Clock::now();
            DetailedResult res =
                router.model(0).simulate(b->spec, router.inputFor(0, *b));
            simulateUs.push_back(1e3 * msSince(t0));
            (void)res;
        }
    }
    rep.add("accel.simulate_us", median(simulateUs), "us", simulateUs.size(),
            "host time of " + router.name(0) + " simulate(), Cora zoo");

    // nn (sampled): direct replays, unless the workload's own oracle
    // already timed replays of its requests.
    if (!w.reportsSampled()) {
        std::shared_ptr<const ArtifactBundle> b =
            bundleFor("Cora", "GraphSAGE", false);
        std::vector<double> build, quant, fwd;
        double rows = 0.0, nnz = 0.0;
        for (int i = 0; i < 4; ++i) {
            SampledReplay r = replaySampled(*b, i % 2 == 0 ? 5 : 15,
                                            mix(seed, 0xabc0ull + i),
                                            NodeId(97 * i));
            build.push_back(r.buildMs);
            quant.push_back(r.quantizeMs);
            fwd.push_back(r.forwardMs);
            rows += double(r.rows);
            nnz += double(r.nnz);
        }
        const std::string note = "replay on Cora GraphSAGE, fanouts 5/15";
        rep.add("nn.sample_build_ms", median(build), "ms", 4, note);
        rep.add("nn.sample_quantize_ms", median(quant), "ms", 4, note);
        rep.add("nn.sampled_forward_ms", median(fwd), "ms", 4, note);
        rep.add("nn.sampled_rows", rows / 4.0, "count", 4,
                "operator rows built per request");
        rep.add("nn.sampled_nnz", nnz / 4.0, "count", 4,
                "operator nonzeros built per request");
    }

    // dyn + shard counts: chained incremental rebuilds (Cora, Cora,
    // Pubmed sharded) mirroring live_updates, unless its window already
    // measured them.
    std::shared_ptr<const ArtifactBundle> pubmed =
        bundleFor("Pubmed", "GCN", true);
    if (!w.reportsUpdates()) {
        std::shared_ptr<const ArtifactBundle> cur[2] = {
            bundleFor("Cora", "GCN", false), pubmed};
        auto step = [&](int d, uint64_t s, UpdateBuildStats *st) {
            dyn::GraphDelta delta;
            appendToggles(delta, drawToggles(cur[d]->synth.graph,
                                             kDeltaEdges, s));
            cur[d] = applyDeltaToBundle(cur[d], delta, 42, gopts.reorder,
                                        2.0, st);
        };
        for (int d = 0; d < 2; ++d)
            step(d, mix(seed, 0xd0ull + d), nullptr);
        std::vector<double> build;
        double dirty = 0.0, recomputed = 0.0, base = 0.0, migrations = 0.0;
        double shards = 0.0;
        size_t rebases = 0;
        const int order[3] = {0, 0, 1};
        for (int i = 0; i < 3; ++i) {
            int d = order[i];
            UpdateBuildStats st;
            step(d, mix(seed, 0xd100ull + i), &st);
            build.push_back(1e3 * st.seconds);
            dirty += double(st.dirtyRows);
            recomputed += double(st.recomputedRows);
            migrations += double(st.migrations);
            base += double(cur[d]->synth.graph.numNodes()) *
                    double(cur[d]->spec.layers.size());
            if (d == 1) {
                shards += double(st.affectedShards);
                rebases += st.rebased ? 1 : 0;
            }
        }
        const std::string note = "applyDeltaToBundle probe";
        rep.add("dyn.update_build_ms", median(build), "ms", 3, note);
        rep.add("dyn.dirty_rows", dirty / 3.0, "count", 3, note);
        rep.add("dyn.recomputed_rows", recomputed / 3.0, "count", 3, note);
        rep.add("dyn.recompute_ratio", recomputed / base, "ratio", 3,
                "base = nodes x layers per update");
        rep.add("dyn.migrations", migrations / 3.0, "count", 3, note);
        rep.add("shard.affected_shards", shards, "count", 1,
                "per sharded update");
        rep.add("shard.rebases", double(rebases), "count", 1, note);
    }

    // shard time: the executor's own level-2 spans around sharded int8
    // passes over the Pubmed artifact.
    obs::TraceRecorder rec(obs::kTraceKernels);
    obs::TraceCtx tctx{&rec, 0};
    for (int i = 0; i < kReps; ++i)
        shard::quantizedShardedForward(pubmed->sharded->plan,
                                       pubmed->quantized.at(kInt8),
                                       pubmed->hostFeatures, nullptr,
                                       nullptr, &tctx);
    double computeNs = 0.0, haloNs = 0.0;
    for (const obs::TraceSpan &s : rec.snapshot()) {
        if (s.name == "shard.compute")
            computeNs += double(s.durNs);
        else if (s.name.rfind("halo.", 0) == 0)
            haloNs += double(s.durNs);
    }
    rep.add("shard.compute_ms", computeNs / 1e6 / kReps, "ms", kReps,
            "sum of shard.compute spans per Pubmed int8 pass (4 shards)");
    rep.add("shard.halo_ms", haloNs / 1e6 / kReps, "ms", kReps,
            "sum of halo spans per Pubmed int8 pass");
}

} // namespace perfbench
