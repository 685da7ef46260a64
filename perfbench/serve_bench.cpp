/**
 * @file
 * The repository's serving benchmark. One run drives one workload
 * against serve::ServingEngine and prints every metric by name with its
 * unit and sample count; the last line of stdout is a JSON summary.
 *
 *   gcod_perfbench --workload sampled_sage|zoo_refresh|live_updates
 *                  --seed N --seconds S --trace 0|1
 *   gcod_perfbench --selftest
 *
 * --trace 0 reports the end-to-end metrics of an untraced window.
 * --trace 1 runs that window, then a second one with request tracing
 * and the kernel profiler on, and reports the per-layer metrics plus the
 * tracing overhead between the two. Either way the run first sets up the
 * workload three times (setup_s is the median), runs a fixed-length
 * determinism script on the first two set-ups and compares them, and
 * checks every reply of every window against the correctness oracle.
 * A failed check prints "CHECK FAILED", reports correct=false and exits
 * with status 1. See perfbench/README.md.
 */
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "obs/kernel_profile.hpp"
#include "stats.hpp"

using namespace perfbench;
using namespace gcod;
using namespace gcod::serve;

namespace {

constexpr int kSetupReps = 3;
/** Largest |X * R / clients - 1| a closed loop may show (Little's law). */
constexpr double kLittleTolerance = 0.1;

/** Environment that would change what the engine does; always cleared. */
const char *const kPinnedEnv[] = {"GCOD_TRACE", "GCOD_FAULT_SEED",
                                  "GCOD_THREADS"};

/** Per-layer dispatch and precision counts every run reports. */
const char *const kDispatchCounts[] = {
    "serve.dispatch.GCoD", "serve.dispatch.GCoD_bits_8",
    "serve.dispatch.shard_fleet", "serve.exec_bits.8", "serve.exec_bits.32"};

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    bool selftest = false;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (k == "--selftest") {
            a.selftest = true;
            continue;
        }
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + k);
        std::string v = argv[++i];
        if (k == "--workload") {
            a.workload = v;
            haveWorkload = true;
        } else if (k == "--seed") {
            a.seed = std::stoull(v);
        } else if (k == "--seconds") {
            a.seconds = std::stod(v);
        } else if (k == "--trace") {
            a.trace = std::stoi(v);
        } else {
            throw std::invalid_argument("unknown argument " + k);
        }
    }
    if (!a.selftest && !haveWorkload)
        throw std::invalid_argument("--workload is required");
    if (a.trace != 0 && a.trace != 1)
        throw std::invalid_argument("--trace must be 0 or 1");
    if (!(a.seconds > 0.0))
        throw std::invalid_argument("--seconds must be positive");
    return a;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, uint64_t seed)
{
    if (name == "sampled_sage")
        return makeSampledSage(seed);
    if (name == "zoo_refresh")
        return makeZooRefresh(seed);
    if (name == "live_updates")
        return makeLiveUpdates(seed);
    throw std::invalid_argument("unknown workload " + name);
}

void
compareDeterminism(const std::string &workload, const Determinism &a,
                   const Determinism &b)
{
    size_t n = std::max(a.lines.size(), b.lines.size());
    for (size_t i = 0; i < n; ++i) {
        std::string la = i < a.lines.size() ? a.lines[i] : "<none>";
        std::string lb = i < b.lines.size() ? b.lines[i] : "<none>";
        if (la != lb)
            fail(workload, "determinism op " + std::to_string(i),
                 "same seed, different outcome: '" + la + "' vs '" + lb +
                     "'");
    }
    if (a.counts != b.counts)
        fail(workload, "determinism counts",
             "same seed, different dispatch/precision/batch/dyn counts");
}

/**
 * Throughput-window guard: the window holds exactly the timed operations
 * and nothing from set-up.
 */
void
checkWindow(const Workload &w, const Window &win,
            Clock::time_point setup_end)
{
    if (win.begin < setup_end)
        fail(w.name(), "window", "starts before set-up ended");
    for (const OpRecord &r : win.ops)
        if (r.submitted < win.begin || r.done > win.end)
            fail(w.name(), "window", "an operation lies outside the window");
    for (const UpdateRecord &u : win.updates)
        if (u.start < win.begin || u.done > win.end)
            fail(w.name(), "window", "an update lies outside the window");
}

size_t
failedOps(const Window &win)
{
    size_t n = 0;
    for (const OpRecord &r : win.ops)
        n += r.reply.ok() ? 0 : 1;
    return n;
}

std::string
tailNote(const Summary &s)
{
    std::ostringstream os;
    os << "p" << std::fixed << std::setprecision(1) << s.tailPercentile
       << ", " << s.beyond << " samples beyond";
    return os.str();
}

/** Client-side request latencies (submit -> reply ready), ms. */
std::vector<double>
requestLatencies(const Window &win)
{
    std::vector<double> lat;
    for (const OpRecord &r : win.ops)
        lat.push_back(r.latencyMs());
    return lat;
}

/** Wall-clock applyUpdate() latencies, ms. */
std::vector<double>
updateLatencies(const Window &win)
{
    std::vector<double> lat;
    for (const UpdateRecord &u : win.updates)
        lat.push_back(u.latencyMs());
    return lat;
}

/** The throughput_per_s population of @p win: requests or updates. */
double
primaryThroughput(const Workload &w, const Window &win)
{
    size_t n = w.updatesArePrimary() ? win.updates.size() : win.ops.size();
    return double(n) / win.seconds();
}

/** End-to-end metrics of an untraced window, with the definition guards. */
Report
endToEnd(const Workload &w, const Window &win, const std::vector<double> &setup)
{
    const bool updates = w.updatesArePrimary();
    std::vector<double> lat =
        updates ? updateLatencies(win) : requestLatencies(win);
    Summary s = summarize(lat);
    if (s.tail < s.p50)
        fail(w.name(), "latency metrics", "tail below the median");
    if (s.beyond < kTailBeyond)
        fail(w.name(), "latency metrics",
             "fewer than 10 samples beyond the tail percentile");
    double window = win.seconds();
    double throughput = double(lat.size()) / window;
    if (int c = w.closedLoopClients(); c > 0) {
        double little = throughput * (s.mean / 1e3) / double(c);
        if (std::abs(little - 1.0) > kLittleTolerance)
            fail(w.name(), "throughput metric",
                 "closed loop of " + std::to_string(c) +
                     " clients breaks Little's law: throughput x mean "
                     "latency / clients = " +
                     std::to_string(little));
    }
    const std::string op = updates ? "applyUpdate() calls" : "requests";
    Report rep;
    rep.add("setup_s", median(setup), "s", setup.size(),
            "median of set-ups (engine + cold builds + warm-up)");
    rep.add("latency_p50_ms", s.p50, "ms", s.n,
            updates ? "applyUpdate() wall clock" : "submit -> reply ready");
    rep.add("latency_tail_ms", s.tail, "ms", s.n, tailNote(s));
    rep.add("throughput_per_s", throughput, "1/s", s.n,
            "completed " + op + " / " + std::to_string(window) +
                " s window");
    return rep;
}

void
printWindow(const Window &win, const char *label)
{
    size_t failed = failedOps(win);
    Summary rs = summarize(requestLatencies(win));
    std::cout << label << ": " << std::fixed << std::setprecision(3)
              << win.seconds() << " s\n  requests attempted="
              << win.ops.size() << " succeeded=" << win.ops.size() - failed
              << " failed=" << failed << std::defaultfloat
              << "; request_p50_ms=" << rs.p50
              << " request_tail_ms=" << rs.tail << " (" << tailNote(rs)
              << ", n=" << rs.n << ")\n";
    if (!win.updates.empty()) {
        Summary us = summarize(updateLatencies(win));
        std::cout << "  updates attempted=" << win.updates.size()
                  << " succeeded=" << win.updates.size()
                  << " failed=0; update_p50_ms=" << us.p50
                  << " update_tail_ms=" << us.tail << " (" << tailNote(us)
                  << ", n=" << us.n << "); "
                  << double(win.updates.size()) / win.seconds()
                  << " updates/s\n";
    }
}

/** Per-layer metrics of the traced window (serve + accel). */
void
serveLayer(Workload &w, const Window &tw, const Determinism &det,
           Report &rep)
{
    std::vector<double> queue;
    double batches = 0.0, cacheHits = 0.0, modeled = 0.0;
    size_t shed = 0, timedOut = 0;
    for (const OpRecord &r : tw.ops) {
        queue.push_back(1e3 * r.reply.queueSeconds);
        batches += 1.0 / double(std::max<size_t>(1, r.reply.batchSize));
        cacheHits += r.reply.cacheHit ? 1.0 : 0.0;
        modeled += 1e3 * r.reply.serviceSeconds;
        shed += r.reply.shed ? 1 : 0;
        timedOut += r.reply.timedOut ? 1 : 0;
    }
    size_t n = tw.ops.size();
    SpanRollup spans = w.rollup();
    size_t memoLookups = spans.memoLookups, memoHits = spans.memoHits;
    size_t routes = spans.routes;
    double routeNs = spans.routeNs;
    Summary req = summarize(requestLatencies(tw));
    rep.add("serve.request_p50_ms", req.p50, "ms", req.n,
            "client submit -> reply ready");
    rep.add("serve.request_tail_ms", req.tail, "ms", req.n, tailNote(req));
    rep.add("serve.queue_wait_ms", median(queue), "ms", n,
            "p50 of reply.queueSeconds");
    rep.add("serve.batch_size_mean", double(n) / batches, "count",
            size_t(batches + 0.5), "requests per batch");
    rep.add("serve.memo_hit_ratio",
            memoLookups ? double(memoHits) / double(memoLookups) : 0.0,
            "ratio", memoLookups, "host.exec spans served by memo or store");
    rep.add("serve.memo_lookups", double(memoLookups), "count", memoLookups,
            "base of serve.memo_hit_ratio");
    rep.add("serve.cache_hit_ratio", cacheHits / double(n), "ratio", n,
            "replies whose artifact was resident");
    rep.add("serve.route_us", routes ? routeNs / 1e3 / double(routes) : 0.0,
            "us", routes, "mean route span");
    for (const auto &[k, v] : det.counts)
        if ((k.rfind("serve.dispatch.", 0) == 0 ||
             k.rfind("serve.exec_bits.", 0) == 0) &&
            std::find(std::begin(kDispatchCounts), std::end(kDispatchCounts),
                      k) == std::end(kDispatchCounts))
            fail(w.name(), "determinism script",
                 "unexpected dispatch/precision count " + k);
    for (const char *k : kDispatchCounts) {
        auto it = det.counts.find(k);
        rep.add(k, it == det.counts.end() ? 0.0 : double(it->second),
                "count", 1, "fixed-length determinism script");
    }
    rep.add("serve.attempted", double(n + tw.updates.size()), "count", 1,
            "traced window");
    rep.add("serve.failed", double(failedOps(tw)), "count", 1,
            "traced window");
    rep.add("serve.shed", double(shed), "count", 1, "traced window");
    rep.add("serve.timed_out", double(timedOut), "count", 1,
            "traced window");
    rep.add("accel.modeled_ms", modeled / double(n), "ms", n,
            "modeled accelerator seconds per pass (reply.serviceSeconds), "
            "not host time");
}

void
printJson(bool correct, size_t attempted, size_t failed, const Report &rep)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << std::max<size_t>(1, attempted)
       << ", \"failed\": " << failed << ", \"metrics\": {";
    os << std::setprecision(17);
    for (size_t i = 0; i < rep.metrics.size(); ++i) {
        const Metric &m = rep.metrics[i];
        os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
           << m.value << ", \"unit\": \"" << m.unit << "\"}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

int
runBenchmark(const Args &a)
{
    std::unique_ptr<Workload> w = makeWorkload(a.workload, a.seed);
    unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    std::cout << "perfbench workload=" << a.workload << " seed=" << a.seed
              << " seconds=" << a.seconds << " trace=" << a.trace << "\n"
              << "config: " << w->describe() << "\n"
              << "threads: at most " << w->busyThreads()
              << " busy (clients + workers + pool) of nproc " << nproc
              << "\nenv: GCOD_TRACE, GCOD_FAULT_SEED, GCOD_THREADS cleared\n";
    if (unsigned(w->busyThreads()) > nproc)
        std::cout << "warning: busy threads exceed nproc; timings will "
                     "include CPU contention\n";

    size_t attempted = 0, failed = 0;
    try {
        std::vector<double> setup;
        Determinism det[2];
        for (int r = 0; r < kSetupReps; ++r) {
            w->teardown();
            Clock::time_point t0 = Clock::now();
            w->setup();
            setup.push_back(secondsBetween(t0, Clock::now()));
            if (r < 2)
                det[r] = w->determinismScript();
        }
        compareDeterminism(w->name(), det[0], det[1]);
        std::cout << "setup: " << kSetupReps << " set-ups [";
        for (size_t i = 0; i < setup.size(); ++i)
            std::cout << (i ? ", " : "") << setup[i];
        std::cout << "] s\ndeterminism: 2 set-ups agree on "
                  << det[0].lines.size() << " ops; signature 0x" << std::hex
                  << det[0].hash() << std::dec << "\n";

        Clock::time_point setupEnd = Clock::now();
        Window win = w->run(a.seconds);
        checkWindow(*w, win, setupEnd);
        attempted += win.ops.size() + win.updates.size();
        failed += failedOps(win);
        printWindow(win, "window");
        w->verify(win);
        Report e2e = endToEnd(*w, win, setup);
        e2e.print(std::cout);

        if (a.trace == 0) {
            w->finalChecks();
            std::cout << "oracle: all checks passed\n";
            printJson(true, attempted, failed, e2e);
            return 0;
        }

        const double xUntraced = primaryThroughput(*w, win);
        win = Window{};
        w->setTracing(true);
        obs::KernelProfiler prof;
        prof.enable();
        Clock::time_point tracedStart = Clock::now();
        Window tw = w->run(a.seconds);
        prof.disable();
        w->setTracing(false);
        checkWindow(*w, tw, tracedStart);
        attempted += tw.ops.size() + tw.updates.size();
        failed += failedOps(tw);
        printWindow(tw, "traced window");
        w->verify(tw);
        std::cout << "kernel zones of the traced window:\n";
        prof.report(std::cout);

        Report layers;
        serveLayer(*w, tw, det[0], layers);
        w->layerMetrics(tw, layers);
        layerSweep(*w, a.seed, layers);
        layers.add("gcod.build_s", w->buildSeconds(), "s", 1,
                   "cache().totalBuildSeconds() of the measured set-up");
        layers.add("obs.trace_overhead",
                   xUntraced / primaryThroughput(*w, tw) - 1.0, "ratio", 2,
                   "untraced / traced throughput_per_s - 1");
        w->finalChecks();
        std::cout << "oracle: all checks passed\n";
        layers.print(std::cout);
        printJson(true, attempted, failed, layers);
        return 0;
    } catch (const CheckFailure &e) {
        std::cout << "CHECK FAILED: " << e.what() << std::endl;
        std::cerr << "CHECK FAILED: " << e.what() << std::endl;
        printJson(false, attempted, failed, Report{});
        return 1;
    }
}

// ------------------------------------------------------------ self-test

int selfTestFailures = 0;

void
expect(bool ok, const std::string &what)
{
    if (!ok) {
        ++selfTestFailures;
        std::cout << "selftest FAILED: " << what << "\n";
    }
}

int
selfTest()
{
    std::vector<double> ten;
    for (int i = 1; i <= 10; ++i)
        ten.push_back(i);
    expect(nearestRank(ten, 50) == 5, "p50 of 1..10 is 5");
    expect(nearestRank(ten, 90) == 9, "p90 of 1..10 is 9");
    expect(nearestRank(ten, 91) == 10, "p91 of 1..10 is 10");
    expect(nearestRank(ten, 0) == 1, "p0 is the minimum");
    expect(nearestRank(ten, 100) == 10, "p100 is the maximum");

    std::vector<double> hundred;
    for (int i = 100; i >= 1; --i)
        hundred.push_back(i);
    Summary s = summarize(hundred);
    expect(s.n == 100 && s.p50 == 50, "median of 100 shuffled samples");
    expect(s.tail == 90 && s.tailPercentile == 90.0 && s.beyond == 10,
           "tail of 100 samples is p90 with 10 beyond");
    expect(s.mean == 50.5, "mean of 1..100");

    std::vector<double> twenty;
    for (int i = 0; i < 20; ++i)
        twenty.push_back(20 - i);
    Summary t = summarize(twenty);
    expect(t.p50 == 10 && t.tail == 10 && t.tail >= t.p50,
           "smallest set: tail rank meets the median rank");
    bool threw = false;
    try {
        summarize(std::vector<double>(19, 1.0));
    } catch (const std::invalid_argument &) {
        threw = true;
    }
    expect(threw, "fewer than 20 samples is refused");

    std::vector<double> skewed(990, 1.0);
    skewed.insert(skewed.end(), 10, 1000.0);
    Summary k = summarize(skewed);
    expect(k.tail == 1.0 && k.p50 == 1.0,
           "ten outliers sit beyond the tail, not in it");

    Determinism a, b;
    a.lines = {"x", "y"};
    b.lines = {"x", "y"};
    a.counts["serve.dispatch.GCoD"] = 3;
    b.counts["serve.dispatch.GCoD"] = 3;
    expect(a.hash() == b.hash(), "equal scripts hash equal");
    b.counts["serve.dispatch.GCoD"] = 4;
    expect(a.hash() != b.hash(), "a count change changes the hash");

    std::cout << "selftest: " << (selfTestFailures ? "FAILED" : "ok") << "\n";
    return selfTestFailures ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    for (const char *v : kPinnedEnv)
        unsetenv(v);
    Args a;
    try {
        a = parseArgs(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "usage: gcod_perfbench --workload "
                     "sampled_sage|zoo_refresh|live_updates --seed N "
                     "--seconds S --trace 0|1 | --selftest\nerror: "
                  << e.what() << "\n";
        return 2;
    }
    if (a.selftest)
        return selfTest();
    try {
        return runBenchmark(a);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }
}
