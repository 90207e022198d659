/**
 * @file
 * msim_e2e: the program behind the end-to-end benchmark (see README.md
 * in this directory).  One process makes one sample:
 *
 *   msim_e2e setup --workload W            set-up time only
 *   msim_e2e pass  --workload W ...        one single-thread pass through
 *                                          core::runJobs/runJobsSampled
 *   msim_e2e trace --workload W ...        the same jobs driven layer by
 *                                          layer through the public sim::
 *                                          calls, each call timed here
 *
 * pass and trace check every job against the committed expected table
 * (expected/<workload>.tsv) and print one JSON line last; run.py turns
 * the samples of many processes into a run's metrics.  `pass
 * --regenerate` rewrites the table instead of checking it.
 *
 * Option: --expected-dir DIR (default: e2ebench/expected, relative to
 * the working directory).
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <sys/resource.h>

#include "common/thread_pool.hh"
#include "core/experiment.hh"
#include "core/registry.hh"
#include "cpu/replay_engine.hh"
#include "mem/hierarchy.hh"
#include "obs/json.hh"
#include "sim/machine.hh"
#include "sim/runner.hh"
#include "sim/sampled.hh"

namespace
{

using namespace msim;
using core::Job;
using prog::Variant;

double
clockSeconds(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double
monoNow()
{
    return clockSeconds(CLOCK_MONOTONIC);
}

// --- workloads --------------------------------------------------------

bool
isSampled(const std::string &workload)
{
    return workload == "l1-sweep-sampled";
}

/**
 * The job list of one pass.  The inputs are the registry's fixed
 * synthetic images and sequences, so this list is the whole input.
 */
std::vector<Job>
makeJobs(const std::string &workload)
{
    std::vector<Job> jobs;
    if (workload == "fig1-ilp") {
        const sim::MachineConfig machines[] = {
            sim::inOrder1Way(), sim::inOrder4Way(), sim::outOfOrder4Way()};
        for (const char *name : {"conv", "scaling", "mpeg-dec"})
            for (Variant v : {Variant::Scalar, Variant::Vis})
                for (const auto &m : machines)
                    jobs.push_back({name, v, m});
    } else if (workload == "l1-sweep" || isSampled(workload)) {
        for (const char *name : {"conv", "scaling", "cjpeg", "djpeg",
                                 "mpeg-dec"})
            for (u32 kb : {1u, 4u, 16u, 64u})
                jobs.push_back({name, Variant::Vis,
                                sim::withL1Size(kb * 1024)});
    } else {
        throw std::invalid_argument("unknown workload: " + workload);
    }
    return jobs;
}

std::string
jobKey(const Job &job)
{
    return job.benchmark + "/" + prog::variantName(job.variant) + "/" +
           job.machine.label;
}

/** What runJobs groups by: everything the instruction stream depends on. */
using TraceKey = std::tuple<std::string, int, bool, bool, bool, bool>;

TraceKey
traceKeyOf(const Job &job)
{
    const prog::VisFeatures &f = job.machine.visFeatures;
    return {job.benchmark, static_cast<int>(job.variant),
            job.machine.skewArrays, f.direct16x16Mul, f.hasPmaddwd,
            f.hasPdist};
}

// --- results: expected-table rows and digests ---------------------------

using Row = std::vector<std::string>;

const std::vector<std::string> kExactColumns = {
    "cycles",      "retired",     "l1_accesses", "l1_misses",
    "l2_accesses", "l2_misses",   "mispredicts", "vis_ops"};

const std::vector<std::string> kSampledColumns = {
    "instructions", "cpi", "cpi_ci95", "cycles", "cycles_ci95"};

std::string
fmt(u64 v)
{
    return std::to_string(v);
}

/** %.17g: the exact decimal image of a double, so rows compare exactly. */
std::string
fmt(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

Row
rowOf(const sim::RunResult &r)
{
    return {fmt(r.exec.cycles),     fmt(r.exec.retired),
            fmt(r.l1.accesses),     fmt(r.l1.misses),
            fmt(r.l2.accesses),     fmt(r.l2.misses),
            fmt(r.exec.mispredicts), fmt(r.visOps)};
}

Row
rowOf(const sim::SampledResult &r)
{
    return {fmt(r.instructions), fmt(r.cpi.mean), fmt(r.cpi.ci95),
            fmt(r.cycles.mean), fmt(r.cycles.ci95)};
}

/** FNV-1a over every field of every result: "same results" in 16 hex digits. */
class Digest
{
  public:
    void
    add(u64 v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ull;
        }
    }

    void add(double v) { add(std::bit_cast<u64>(v)); }

    void
    add(const sim::CacheSnap &s)
    {
        for (u64 v : {s.accesses, s.hits, s.misses, s.writebacks,
                      s.prefetchDrops, s.combined, s.blocked,
                      static_cast<u64>(s.mshrPeakOccupancy)})
            add(v);
        for (double v : {s.missRate, s.mshrMeanOccupancy, s.mshrFracAtLeast2,
                         s.mshrFracAtLeast5, s.loadOverlapMean})
            add(v);
    }

    void
    add(const sim::RunResult &r)
    {
        const cpu::ExecStats &e = r.exec;
        for (u64 v : {static_cast<u64>(e.cycles), e.retired, e.mixFu,
                      e.mixBranch, e.mixMemory, e.mixVis, e.branches,
                      e.mispredicts, e.loadsL1, e.loadsL2, e.loadsMem,
                      e.prefetchesIssued, e.prefetchesDropped, r.tbInstrs,
                      r.visOps, r.visOverheadOps})
            add(v);
        for (double v : {e.busy, e.fuStall, e.memL1Hit, e.memL1Miss})
            add(v);
        add(r.l1);
        add(r.l2);
    }

    void
    add(const sim::SampledResult &r)
    {
        for (const sim::Estimate *e :
             {&r.cpi, &r.cycles, &r.fracBusy, &r.fracFuStall,
              &r.fracMemL1Hit, &r.fracMemL1Miss, &r.mispredictRate,
              &r.loadL1MissRate}) {
            add(e->mean);
            add(e->ci95);
        }
        for (u64 v : {r.instructions, r.measuredInstructions,
                      r.measuredChunks, static_cast<u64>(r.exact)})
            add(v);
        if (r.exact)
            add(r.full);
    }

    std::string
    hex() const
    {
        char buf[20];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(h_));
        return buf;
    }

  private:
    u64 h_ = 0xcbf29ce484222325ull;
};

/** The committed expected table of one workload: job key -> fields. */
struct Expected
{
    std::vector<std::string> columns;
    std::map<std::string, Row> rows;
};

std::vector<std::string>
splitTabs(const std::string &line)
{
    std::vector<std::string> out;
    std::stringstream ss(line);
    std::string cell;
    while (std::getline(ss, cell, '\t'))
        out.push_back(cell);
    return out;
}

/** Read a table; throws when the file is missing or has no header. */
Expected
readExpected(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read expected table " + path);
    Expected e;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::vector<std::string> cells = splitTabs(line);
        const std::string key = cells.front();
        cells.erase(cells.begin());
        if (e.columns.empty() && key == "job")
            e.columns = std::move(cells);
        else
            e.rows[key] = std::move(cells);
    }
    if (e.columns.empty())
        throw std::runtime_error("expected table has no header: " + path);
    return e;
}

void
writeExpected(const std::string &path, const std::string &workload,
              const std::vector<std::string> &columns,
              const std::vector<Job> &jobs, const std::vector<Row> &rows)
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write expected table " + path);
    out << "# Expected simulated results of the " << workload
        << " workload, one row per job.\n"
        << "# Regenerate only with: python3 e2ebench/run.py --workload "
        << workload << " --regenerate-expected\n";
    out << "job";
    for (const auto &c : columns)
        out << '\t' << c;
    out << '\n';
    for (size_t i = 0; i < jobs.size(); ++i) {
        out << jobKey(jobs[i]);
        for (const auto &v : rows[i])
            out << '\t' << v;
        out << '\n';
    }
}

/**
 * Compare each job's row with the table; one message per failing job.
 * A table whose columns are not @p columns fails every job.
 */
std::vector<std::string>
checkExpected(const Expected &e, const std::vector<std::string> &columns,
              const std::vector<Job> &jobs, const std::vector<Row> &rows)
{
    std::vector<std::string> failures;
    for (size_t i = 0; i < jobs.size(); ++i) {
        const std::string key = jobKey(jobs[i]);
        if (e.columns != columns) {
            failures.push_back(key + ": expected table has other columns");
            continue;
        }
        const auto it = e.rows.find(key);
        if (it == e.rows.end()) {
            failures.push_back(key + ": no expected row");
            continue;
        }
        if (it->second.size() != columns.size()) {
            failures.push_back(key + ": malformed expected row");
            continue;
        }
        for (size_t c = 0; c < columns.size(); ++c) {
            if (it->second[c] != rows[i][c]) {
                failures.push_back(key + ": " + columns[c] + " expected " +
                                   it->second[c] + ", simulated " +
                                   rows[i][c]);
                break;
            }
        }
    }
    return failures;
}

/** One workload's results, exact or sampled, in job order. */
struct Results
{
    std::vector<sim::RunResult> exact;
    std::vector<sim::SampledResult> sampled;

    std::vector<Row>
    rows() const
    {
        std::vector<Row> out;
        for (const auto &r : exact)
            out.push_back(rowOf(r));
        for (const auto &r : sampled)
            out.push_back(rowOf(r));
        return out;
    }

    std::string
    digest() const
    {
        Digest d;
        for (const auto &r : exact)
            d.add(r);
        for (const auto &r : sampled)
            d.add(r);
        return d.hex();
    }

    /** Instructions simulated; a sampled job counts the whole trace. */
    u64
    simInstructions() const
    {
        u64 n = 0;
        for (const auto &r : exact)
            n += r.exec.retired;
        for (const auto &r : sampled)
            n += r.instructions;
        return n;
    }
};

// --- host state ---------------------------------------------------------

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos && colon + 2 <= line.size())
                return line.substr(colon + 2);
        }
    }
    return "unknown";
}

/** Host-wide steal ticks from /proc/stat (0 when unavailable). */
u64
stealTicks()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    u64 v[8] = {};
    if (!(in >> cpu) || cpu != "cpu")
        return 0;
    for (u64 &x : v)
        if (!(in >> x))
            return 0;
    return v[7];
}

/**
 * A fixed compute-only loop (xorshift + multiply, no memory traffic):
 * its time says how fast this host ran just now, independent of msim.
 */
/** Written by the calibration loop so the compiler cannot drop it. */
volatile u64 calibrationSink = 0;

double
calibrationSeconds()
{
    const double t0 = monoNow();
    u64 x = 0x9e3779b97f4a7c15ull, acc = 0;
    for (u64 i = 0; i < (u64{1} << 25); ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += x * (i | 1);
    }
    calibrationSink = acc;
    return monoNow() - t0;
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

// --- model accuracy against the paper ----------------------------------

/**
 * The Fig. 1 / Fig. 2 statistics of fig1-ilp's benchmarks beside the
 * paper's published values (as quoted in EXPERIMENTS.md).  Job order is
 * makeJobs': per benchmark, {scalar, vis} x {1-way, 4-way, ooo}.
 */
void
printAccuracy(const std::vector<Job> &jobs,
              const std::vector<sim::RunResult> &r)
{
    struct PaperFig2
    {
        const char *name;
        int visPct;
    };
    const PaperFig2 fig2[] = {{"conv", 25}, {"scaling", 18},
                              {"mpeg-dec", 66}};
    std::printf("model accuracy: fig1-ilp beside the paper's published "
                "figures (the model has no other reference)\n");
    for (size_t b = 0; b * 6 + 5 < jobs.size() && b < 3; ++b) {
        const auto cyc = [&](size_t k) {
            return static_cast<double>(r[b * 6 + k].exec.cycles);
        };
        const double visPct =
            100.0 * static_cast<double>(r[b * 6 + 5].exec.retired) /
            static_cast<double>(r[b * 6 + 2].exec.retired);
        std::printf("  %-8s multiple-issue %.2fX [paper 1.1-1.4X, avg 1.2X]"
                    "  ILP %.2fX [paper 2.3-4.2X, avg 3.1X]"
                    "  VIS on ooo %.2fX [paper 1.1-4.2X, avg 1.8X]"
                    "  VIS retired %.0f%% of base [paper %d%%]\n",
                    jobs[b * 6].benchmark.c_str(), cyc(0) / cyc(1),
                    cyc(0) / cyc(2), cyc(2) / cyc(5), visPct,
                    fig2[b].visPct);
    }
}

// --- the traced run -----------------------------------------------------

/** Host time and work per layer, summed over one traced run. */
struct Layers
{
    double recordS = 0, inorderS = 0, oooS = 0, warmS = 0, prepS = 0,
           sampledS = 0, criticalGroupS = 0, passS = 0, wallS = 0;
    u64 traces = 0, traceBytes = 0, recordedInsts = 0;
    u64 inorderRetired = 0, inorderCycles = 0;
    u64 oooRetired = 0, oooCycles = 0;
    u64 warmAccesses = 0;
};

double
perSecondM(u64 n, double s)
{
    return s > 0 ? static_cast<double>(n) / s / 1e6 : 0.0;
}

double
nsPer(double s, u64 n)
{
    return n ? s * 1e9 / static_cast<double>(n) : 0.0;
}

/**
 * Drive @p jobs the way single-thread runJobs / runJobsSampled does —
 * group by trace key, record each trace once, replay its group — but
 * through the public per-layer calls, timing each from here.  The
 * memory warm path (functional warming of a fresh hierarchy over the
 * whole trace, per job) runs after each group's chain, outside it.
 */
Results
tracedRun(const std::string &workload, const std::vector<Job> &jobs,
          Layers &L)
{
    const bool sampled = isSampled(workload);
    std::map<TraceKey, std::vector<size_t>> groups;
    for (size_t i = 0; i < jobs.size(); ++i)
        groups[traceKeyOf(jobs[i])].push_back(i);

    Results res;
    if (sampled)
        res.sampled.resize(jobs.size());
    else
        res.exact.resize(jobs.size());

    const double wall0 = monoNow();
    for (const auto &[key, members] : groups) {
        const Job &first = jobs[members.front()];
        const core::Benchmark &bench = core::findBenchmark(first.benchmark);
        const Variant variant = first.variant;

        const double g0 = monoNow();
        const prog::RecordedTrace trace = sim::recordTrace(
            [&bench, variant](prog::TraceBuilder &tb) {
                bench.generate(tb, variant);
            },
            first.machine.skewArrays, first.machine.visFeatures);
        const double g1 = monoNow();
        L.recordS += g1 - g0;
        ++L.traces;
        L.traceBytes += trace.byteSize();
        L.recordedInsts += trace.instCount();

        if (sampled) {
            const sim::SampledPlan plan = sim::prepareSampled(trace, {});
            const double p1 = monoNow();
            L.prepS += p1 - g1;
            for (size_t i : members)
                res.sampled[i] = sim::replayTraceSampled(plan, jobs[i].machine);
            L.sampledS += monoNow() - p1;
        } else {
            for (const bool inorder : {true, false}) {
                std::vector<size_t> idx;
                std::vector<sim::MachineConfig> machines;
                for (size_t i : members) {
                    if (jobs[i].machine.core.outOfOrder != inorder) {
                        idx.push_back(i);
                        machines.push_back(jobs[i].machine);
                    }
                }
                if (idx.empty())
                    continue;
                const double r0 = monoNow();
                const std::vector<sim::RunResult> rs =
                    sim::replayTraceBatch(trace, machines);
                const double dt = monoNow() - r0;
                u64 retired = 0, cycles = 0;
                for (size_t k = 0; k < idx.size(); ++k) {
                    res.exact[idx[k]] = rs[k];
                    retired += rs[k].exec.retired;
                    cycles += rs[k].exec.cycles;
                }
                (inorder ? L.inorderS : L.oooS) += dt;
                (inorder ? L.inorderRetired : L.oooRetired) += retired;
                (inorder ? L.inorderCycles : L.oooCycles) += cycles;
            }
        }
        const double chain = monoNow() - g0;
        L.passS += chain;
        L.criticalGroupS = std::max(L.criticalGroupS, chain);

        for (size_t i : members) {
            mem::Hierarchy hierarchy(jobs[i].machine.mem);
            const double w0 = monoNow();
            cpu::ReplayEngine::warmMemory(trace, 0, trace.numMemOps(),
                                          hierarchy);
            L.warmS += monoNow() - w0;
            L.warmAccesses += trace.numMemOps();
        }
    }
    L.wallS = monoNow() - wall0;
    return res;
}

/** Largest |sampled CPI - exact CPI| / exact CPI, in percent. */
double
sampledCpiErrMaxPct(const std::vector<Job> &jobs,
                    const std::vector<sim::SampledResult> &sampled,
                    const Expected &exact)
{
    const auto col = [&](const std::string &name) {
        const auto it =
            std::find(exact.columns.begin(), exact.columns.end(), name);
        if (it == exact.columns.end())
            throw std::runtime_error("exact table lacks column " + name);
        return static_cast<size_t>(it - exact.columns.begin());
    };
    const size_t cCycles = col("cycles"), cRetired = col("retired");
    double worst = 0.0;
    for (size_t i = 0; i < jobs.size(); ++i) {
        const auto it = exact.rows.find(jobKey(jobs[i]));
        if (it == exact.rows.end() || it->second.size() <= cRetired)
            throw std::runtime_error("no exact row for " + jobKey(jobs[i]));
        const double cpi = std::strtod(it->second[cCycles].c_str(), nullptr) /
                           std::strtod(it->second[cRetired].c_str(), nullptr);
        worst = std::max(worst,
                         100.0 * std::fabs(sampled[i].cpi.mean - cpi) / cpi);
    }
    return worst;
}

void
writeLayers(obs::JsonWriter &w, const std::vector<Job> &jobs,
            const Results &res, const Layers &L, double cpiErrPct)
{
    u64 cycles = L.inorderCycles + L.oooCycles;
    u64 retired = L.inorderRetired + L.oooRetired;
    u64 mispredicts = 0, l1a = 0, l1m = 0, l2a = 0, l2m = 0, comb = 0,
        blocked = 0, wb = 0;
    for (const auto &r : res.exact) {
        mispredicts += r.exec.mispredicts;
        l1a += r.l1.accesses;
        l1m += r.l1.misses;
        l2a += r.l2.accesses;
        l2m += r.l2.misses;
        comb += r.l1.combined + r.l2.combined;
        blocked += r.l1.blocked + r.l2.blocked;
        wb += r.l1.writebacks + r.l2.writebacks;
    }
    u64 measured = 0, total = 0;
    for (const auto &r : res.sampled) {
        cycles += static_cast<u64>(std::llround(r.cycles.mean));
        retired += r.measuredInstructions;
        measured += r.measuredInstructions;
        total += r.instructions;
    }

    w.key("layers");
    w.beginObject();
    w.field("prog.record_s", L.recordS);
    w.field("prog.record_minst_per_s", perSecondM(L.recordedInsts, L.recordS));
    w.field("prog.traces", L.traces);
    w.field("prog.trace_mb", static_cast<double>(L.traceBytes) / 1048576.0);
    w.field("cpu.inorder_s", L.inorderS);
    w.field("cpu.inorder_minst_per_s",
            perSecondM(L.inorderRetired, L.inorderS));
    w.field("cpu.inorder_ns_per_sim_cycle", nsPer(L.inorderS, L.inorderCycles));
    w.field("cpu.ooo_s", L.oooS);
    w.field("cpu.ooo_minst_per_s", perSecondM(L.oooRetired, L.oooS));
    w.field("cpu.ooo_ns_per_sim_cycle", nsPer(L.oooS, L.oooCycles));
    w.field("cpu.sim_cycles", cycles);
    w.field("cpu.retired", retired);
    w.field("cpu.mispredicts", mispredicts);
    w.field("mem.l1_accesses", l1a);
    w.field("mem.l1_misses", l1m);
    w.field("mem.l2_accesses", l2a);
    w.field("mem.l2_misses", l2m);
    w.field("mem.mshr_combined", comb);
    w.field("mem.mshr_blocked", blocked);
    w.field("mem.writebacks", wb);
    w.field("mem.warm_s", L.warmS);
    w.field("mem.warm_maccess_per_s", perSecondM(L.warmAccesses, L.warmS));
    w.field("sim.sample_prep_s", L.prepS);
    w.field("sim.sampled_replay_s", L.sampledS);
    w.field("sim.sampled_measured_frac",
            total ? static_cast<double>(measured) / static_cast<double>(total)
                  : 0.0);
    w.field("sim.sampled_cpi_err_max_pct", cpiErrPct);
    w.field("core.jobs", static_cast<u64>(jobs.size()));
    w.field("core.jobs_per_trace",
            L.traces ? static_cast<double>(jobs.size()) /
                           static_cast<double>(L.traces)
                     : 0.0);
    w.field("core.critical_group_s", L.criticalGroupS);
    w.field("traced.pass_s", L.passS);
    w.field("traced.wall_s", L.wallS);
    w.endObject();
}

// --- main ---------------------------------------------------------------

struct Args
{
    std::string mode, workload, expectedDir = "e2ebench/expected";
    bool regenerate = false;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    if (argc < 2)
        throw std::invalid_argument("usage: msim_e2e setup|pass|trace "
                                    "--workload W [--expected-dir D] "
                                    "[--regenerate]");
    a.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload")
            a.workload = next();
        else if (arg == "--expected-dir")
            a.expectedDir = next();
        else if (arg == "--regenerate")
            a.regenerate = true;
        else
            throw std::invalid_argument("unknown argument " + arg);
    }
    if (a.mode != "setup" && a.mode != "pass" && a.mode != "trace")
        throw std::invalid_argument("unknown mode " + a.mode);
    return a;
}

int
run(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);

    // Set-up: loading, static initialization, the job list and the
    // process-wide pool (its thread spawn counts as set-up, not as pass
    // time), as the CPU time the process has used when it is ready.
    // CPU time leaves out the launching parent and run-queue waits.
    const std::vector<Job> jobs = makeJobs(args.workload);
    globalPool();
    const double setupS = clockSeconds(CLOCK_PROCESS_CPUTIME_ID);

    obs::JsonWriter w(stdout);
    if (args.mode == "setup") {
        w.beginObject();
        w.field("setup_s", setupS);
        w.endObject();
        w.newline();
        return 0;
    }

    const bool sampled = isSampled(args.workload);
    const std::vector<std::string> &columns =
        sampled ? kSampledColumns : kExactColumns;
    const std::string tablePath =
        args.expectedDir + "/" + args.workload + ".tsv";
    Expected expected;
    if (!args.regenerate)
        expected = readExpected(tablePath);

    const double load1 = [] {
        double l[1] = {0};
        return getloadavg(l, 1) == 1 ? l[0] : 0.0;
    }();
    const double calibBefore = calibrationSeconds();
    const u64 steal0 = stealTicks();
    const double p0 = monoNow();
    Results res;
    Layers layers;
    if (args.mode == "pass") {
        if (sampled)
            res.sampled = core::runJobsSampled(jobs, {}, 1);
        else
            res.exact = core::runJobs(jobs, 1);
    } else {
        res = tracedRun(args.workload, jobs, layers);
    }
    const double passS = monoNow() - p0;
    const u64 steal = stealTicks() - steal0;
    const double rssMiB = peakRssMiB();

    const std::vector<Row> rows = res.rows();
    std::vector<std::string> failures;
    if (args.regenerate) {
        writeExpected(tablePath, args.workload, columns, jobs, rows);
        std::printf("wrote %s (%zu jobs)\n", tablePath.c_str(), jobs.size());
    } else {
        failures = checkExpected(expected, columns, jobs, rows);
    }
    double cpiErr = 0.0;
    if (args.mode == "trace" && sampled)
        cpiErr = sampledCpiErrMaxPct(
            jobs, res.sampled,
            readExpected(args.expectedDir + "/l1-sweep.tsv"));
    if (args.workload == "fig1-ilp" && !res.exact.empty())
        printAccuracy(jobs, res.exact);

    const double calibS = (calibBefore + calibrationSeconds()) / 2;

    w.beginObject();
    w.field("mode", args.mode);
    w.field("workload", args.workload);
    w.field("jobs", static_cast<u64>(jobs.size()));
    w.field("failed", static_cast<u64>(failures.size()));
    w.key("failures");
    w.beginArray();
    for (const auto &f : failures)
        w.value(f);
    w.endArray();
    w.field("digest", res.digest());
    w.field("setup_s", setupS);
    w.field("pass_s", passS);
    w.field("sim_instructions", res.simInstructions());
    w.field("peak_rss_mb", rssMiB);
    w.key("host");
    w.beginObject();
    w.field("cpu_model", cpuModel());
    w.field("nproc", std::thread::hardware_concurrency());
    w.field("load1", load1);
    w.field("steal_ticks", steal);
    w.field("calibration_s", calibS);
    w.endObject();
    if (args.mode == "trace")
        writeLayers(w, jobs, res, layers, cpiErr);
    w.endObject();
    w.newline();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "msim_e2e: %s\n", e.what());
        return 2;
    }
}
