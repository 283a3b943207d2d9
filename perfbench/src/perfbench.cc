/**
 * @file
 * loopsim suite benchmark program.
 *
 * Builds each workload's cells through the public harness API, times
 * them, and prints one JSON document on stdout: the end-to-end
 * metrics (untraced run) or the per-layer metrics (traced run), every
 * cell's result digest and figure values, the consistency checks it
 * ran, and a run manifest. perfbench/run.py builds this program,
 * compares the digests and figure values against the files shipped
 * beside it, and prints the benchmark's result line.
 *
 * Usage:
 *   loopsim_perfbench --workload paper_base|paper_dra|harness_churn
 *                     --seed N --seconds S --trace 0|1 --work DIR
 *                     [--spans FILE]
 *   loopsim_perfbench --crosscheck --work DIR
 *
 * DIR holds the run's stores, journals and set-up scratch; the caller
 * removes it after the run (deleting files mid-run would slow the
 * fsyncs being measured).
 *
 * The traced run records spans (name, start, end, parent, cell) around
 * every call it makes into the harness, store, supervisor, workload
 * and simulator modules, keeps them in memory and writes them to
 * FILE at exit.
 */

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/campaign.hh"
#include "harness/experiment.hh"
#include "harness/figures.hh"
#include "harness/supervisor.hh"
#include "sim/simulator.hh"
#include "store/fingerprint.hh"
#include "store/journal.hh"
#include "store/record.hh"
#include "store/result_store.hh"
#include "workload/generator.hh"
#include "workload/micro_op.hh"
#include "workload/profile.hh"
#include "workload/workload_set.hh"

using namespace loopsim;
using store::processMemo;
using store::setJournalPath;
using store::setStorePath;
namespace fs = std::filesystem;

namespace
{

using Clock = std::chrono::steady_clock;

/** Fixed worker count: the host width of the reference machine, never
 *  more than the host has (the manifest records both). */
constexpr unsigned kJobs = 4;
/** Paper cell length (EXPERIMENTS.md). */
constexpr std::uint64_t kPaperOps = 200000;
constexpr std::uint64_t kPaperWarmup = 60000;
/** harness_churn cells: short, no warmup, spread over seed offsets. */
constexpr std::uint64_t kChurnOps = 300;
constexpr unsigned kChurnSeedOffsets = 10;
constexpr std::uint64_t kChurnOffsetStride = 100003;
/** Slices per round: each round runs the workload as this many
 *  campaigns, each followed by its replay phase, so cold passes and
 *  replays interleave over the whole run instead of bunching. */
constexpr std::size_t kPaperSlices = 6;
constexpr std::size_t kChurnSlices = 10;
/** Store lookups per replay phase (whole slice passes; each phase
 *  ends with one journal resume pass). */
constexpr std::size_t kReplayLookups = 12000;
/** Set-up is repeated before every round for kSetupBudgetS (at least
 *  kSetupMinRepeats times), so its samples span the run; setup_s is
 *  their median. */
constexpr unsigned kSetupMinRepeats = 3;
constexpr double kSetupBudgetS = 0.15;
/** Short cells per paper workload for the isolation overhead probe. */
constexpr std::size_t kIsolateProbeCells = 26;
/** Ops generated per profile for the generator throughput probe. */
constexpr std::uint64_t kGenOps = kPaperOps + kPaperWarmup;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

/** CPU seconds of this process and its reaped (forked) workers. */
double
cpuSeconds()
{
    auto tv = [](const timeval &t) { return t.tv_sec + t.tv_usec * 1e-6; };
    double total = 0.0;
    for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
        rusage ru{};
        getrusage(who, &ru);
        total += tv(ru.ru_utime) + tv(ru.ru_stime);
    }
    return total;
}

double
peakRssMb()
{
    rusage self{}, kids{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &kids);
    return static_cast<double>(std::max(self.ru_maxrss, kids.ru_maxrss)) /
           1024.0;
}

/** Linear-interpolated quantile @p q of @p v (0 when empty). */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

double
mean(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

// ---------------------------------------------------------------- cells

/** One benchmark cell: a RunSpec plus what the gates need to find it. */
struct Cell
{
    std::string label; ///< "<workload>/<config>[/<offset index>]"
    RunSpec spec;
    bool dra = false;
    /** Index of the base-machine twin of a DRA cell (-1 if none). */
    long twin = -1;
    /** Relative host cost, for longest-first dispatch. */
    double cost = 1.0;
};

/**
 * Host seconds per paper-length base-machine cell by workload (traced
 * paper_dra run, seed 0; a DRA cell costs about 1.35x its twin). Only
 * the dispatch order depends on it:
 * results land by plan index, so a stale table costs tail time, never
 * correctness.
 */
double
workloadCost(const std::string &label)
{
    static const std::map<std::string, double> cost = {
        {"comp", 0.98},     {"gcc", 0.98},   {"go", 1.04},
        {"m88", 0.48},      {"m88-comp", 0.62}, {"go-su2cor", 0.71},
        {"apsi", 0.55},     {"apsi-swim", 0.52}, {"hydro", 0.56},
        {"mgrid", 0.52},    {"su2cor", 0.55}, {"swim", 0.54},
        {"turb3d", 0.58},
    };
    auto it = cost.find(label);
    return it != cost.end() ? it->second : 1.0;
}

Workload
withSeedOffset(Workload w, std::uint64_t offset)
{
    for (BenchmarkProfile &p : w.threads)
        p.seed += offset;
    return w;
}

/** A named machine configuration of the paper's figures. */
struct NamedConfig
{
    std::string name;
    Config cfg;
    bool dra = false;
    std::string twin; ///< base-machine twin of a DRA config
};

NamedConfig
pipeline(unsigned dec_iq, unsigned iq_ex)
{
    NamedConfig nc;
    nc.name = std::to_string(dec_iq) + "_" + std::to_string(iq_ex);
    setPipeline(nc.cfg, dec_iq, iq_ex);
    return nc;
}

NamedConfig
basePipeline(unsigned rf)
{
    NamedConfig nc;
    nc.name = "base_rf" + std::to_string(rf);
    setBasePipeline(nc.cfg, rf);
    return nc;
}

NamedConfig
draPipeline(unsigned rf, std::string twin)
{
    NamedConfig nc;
    nc.name = "dra_rf" + std::to_string(rf);
    setDraPipeline(nc.cfg, rf);
    nc.dra = true;
    nc.twin = std::move(twin);
    return nc;
}

/** fig4 (3_3..9_9) and fig5 (3_9..9_3) base-machine points. */
std::vector<NamedConfig>
paperBaseConfigs()
{
    return {pipeline(3, 3), pipeline(5, 5), pipeline(7, 7), pipeline(9, 9),
            pipeline(3, 9), pipeline(5, 7), pipeline(7, 5), pipeline(9, 3)};
}

/** fig8's base/DRA pairs for register-file latencies 3, 5 and 7. */
std::vector<NamedConfig>
paperDraConfigs()
{
    std::vector<NamedConfig> v;
    for (unsigned rf : {3u, 5u, 7u}) {
        v.push_back(basePipeline(rf));
        v.push_back(draPipeline(rf, "base_rf" + std::to_string(rf)));
    }
    return v;
}

/** Every distinct machine of the paper's figures (fig4/5/6/8/9). */
std::vector<NamedConfig>
inventoryConfigs()
{
    std::vector<NamedConfig> v = paperBaseConfigs();
    v.push_back(basePipeline(7)); // 5_9: fig8's rf7 base machine
    v.push_back(draPipeline(3, "5_5"));
    v.push_back(draPipeline(5, "5_7"));
    v.push_back(draPipeline(7, "base_rf7"));
    return v;
}

std::vector<Cell>
buildCells(const std::string &workload, std::uint64_t seed)
{
    const bool churn = workload == "harness_churn";
    const std::vector<NamedConfig> configs =
        workload == "paper_base"  ? paperBaseConfigs()
        : workload == "paper_dra" ? paperDraConfigs()
                                  : inventoryConfigs();
    const unsigned offsets = churn ? kChurnSeedOffsets : 1;

    std::vector<Cell> cells;
    std::map<std::string, std::size_t> index;
    for (unsigned k = 0; k < offsets; ++k) {
        const std::uint64_t offset = seed + k * kChurnOffsetStride;
        for (const Workload &w : figureWorkloads()) {
            const std::string wl = figureLabel(w);
            for (const NamedConfig &nc : configs) {
                Cell c;
                c.label = wl + "/" + nc.name +
                          (churn ? "/" + std::to_string(k) : "");
                c.spec.workload = withSeedOffset(w, offset);
                c.spec.overrides = nc.cfg;
                c.spec.totalOps = churn ? kChurnOps : kPaperOps;
                c.spec.warmupOps = churn ? 0 : kPaperWarmup;
                c.dra = nc.dra;
                c.cost = workloadCost(wl) * (nc.dra ? 1.35 : 1.0);
                if (nc.dra) {
                    const std::string twin =
                        wl + "/" + nc.twin +
                        (churn ? "/" + std::to_string(k) : "");
                    c.twin = static_cast<long>(index.at(twin));
                }
                index[c.label] = cells.size();
                cells.push_back(std::move(c));
            }
        }
    }
    return cells;
}

/**
 * Plan order: longest cells first (stable), so one late straggler does
 * not set the wall time. Returns the cell index of every plan slot.
 */
std::vector<std::size_t>
dispatchOrder(const std::vector<Cell> &cells)
{
    std::vector<std::size_t> order(cells.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return cells[a].cost > cells[b].cost;
                     });
    return order;
}

CampaignPlan
buildPlan(const std::vector<Cell> &cells,
          const std::vector<std::size_t> &order)
{
    CampaignPlan plan;
    for (std::size_t i : order)
        plan.add(cells[i].spec, cells[i].label);
    return plan;
}

/** Digest of everything a figure reads from a result. */
std::string
resultDigest(const RunResult &r)
{
    store::Hasher h;
    h.u64("cycles", r.cycles);
    h.u64("retired", r.retired);
    h.flag("failed", r.failed);
    for (const auto &[name, value] : r.scalars)
        h.f64(name, value);
    for (double c : r.operandSourceCounts)
        h.f64("operand", c);
    for (double c : r.gapCdf)
        h.f64("gap", c);
    return h.digest().hex();
}

// ---------------------------------------------------------------- checks

/** Consistency checks; workers of the traced pass report concurrently. */
struct Checks
{
    std::mutex mutex;
    std::vector<std::pair<std::string, std::string>> failures;
    std::size_t run = 0;

    void
    expect(bool ok, const std::string &name, const std::string &detail = "")
    {
        std::lock_guard<std::mutex> lock(mutex);
        ++run;
        if (!ok)
            failures.emplace_back(name, detail);
    }
};

/** Byte-level comparison through the store's record codec. */
bool
sameRecord(const store::Fingerprint &fp, const RunResult &a,
           const RunResult &b)
{
    return store::encodeRecord(fp, a) == store::encodeRecord(fp, b);
}

// ---------------------------------------------------------------- spans

/** One traced call. Parents are indexes into the same thread's list,
 *  or -1 for a top-level span. */
struct Span
{
    const char *name;
    double start;
    double end;
    int parent;
    long cell;
};

/**
 * In-memory span recorder: one list per recording thread, so workers
 * never share a lock. Times are seconds since the recorder's epoch.
 */
class SpanLog
{
  public:
    SpanLog(unsigned threads, Clock::time_point epoch_)
        : lists(threads), stacks(threads), epoch(epoch_)
    {
    }

    template <class F>
    auto
    span(unsigned tid, const char *name, long cell, F &&f)
    {
        auto &list = lists[tid];
        auto &stack = stacks[tid];
        const int idx = static_cast<int>(list.size());
        list.push_back(Span{name, now(), 0.0,
                            stack.empty() ? -1 : stack.back(), cell});
        stack.push_back(idx);
        struct Closer
        {
            SpanLog *log;
            unsigned tid;
            int idx;
            ~Closer()
            {
                log->lists[tid][idx].end = log->now();
                log->stacks[tid].pop_back();
            }
        } closer{this, tid, idx};
        return f();
    }

    /** Durations of every span named @p name, in seconds. */
    std::vector<double>
    durations(const std::string &name) const
    {
        std::vector<double> out;
        for (const auto &list : lists)
            for (const Span &s : list)
                if (name == s.name)
                    out.push_back(s.end - s.start);
        return out;
    }

    double
    total(const std::string &name) const
    {
        double t = 0.0;
        for (double d : durations(name))
            t += d;
        return t;
    }

    /**
     * Self time (span minus its children) summed over the per-cell
     * spans (cell >= 0) whose name starts with one of @p layers.
     */
    double
    cellSelfTime(const std::vector<std::string> &layers) const
    {
        double out = 0.0;
        for (const auto &list : lists) {
            std::vector<double> self(list.size());
            for (std::size_t i = 0; i < list.size(); ++i)
                self[i] = list[i].end - list[i].start;
            for (const Span &s : list)
                if (s.parent >= 0)
                    self[s.parent] -= s.end - s.start;
            for (std::size_t i = 0; i < list.size(); ++i) {
                const std::string name = list[i].name;
                for (const std::string &l : layers)
                    if (list[i].cell >= 0 && name.rfind(l, 0) == 0)
                        out += self[i];
            }
        }
        return out;
    }

    void
    write(const std::string &path, const std::string &workload) const
    {
        std::ofstream os(path);
        os << "{\"workload\": " << jsonString(workload)
           << ", \"time_unit\": \"s\", \"spans\": [\n";
        bool first = true;
        for (std::size_t t = 0; t < lists.size(); ++t) {
            for (std::size_t i = 0; i < lists[t].size(); ++i) {
                const Span &s = lists[t][i];
                os << (first ? "" : ",\n") << "{\"id\": \"" << t << ":"
                   << i << "\", \"name\": " << jsonString(s.name)
                   << ", \"start\": " << jsonNumber(s.start)
                   << ", \"end\": " << jsonNumber(s.end)
                   << ", \"parent\": ";
                if (s.parent >= 0)
                    os << "\"" << t << ":" << s.parent << "\"";
                else
                    os << "null";
                os << ", \"cell\": " << s.cell << "}";
                first = false;
            }
        }
        os << "\n]}\n";
    }

  private:
    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - epoch).count();
    }

    std::vector<std::vector<Span>> lists;
    std::vector<std::vector<int>> stacks;
    Clock::time_point epoch;
};

/** Run @p body(tid, slot) over slots [0, n) on @p jobs threads. */
void
runPool(unsigned jobs, std::size_t n,
        const std::function<void(unsigned, std::size_t)> &body)
{
    std::atomic<std::size_t> next{0};
    std::vector<std::jthread> pool;
    for (unsigned t = 0; t < jobs; ++t) {
        pool.emplace_back([&, t] {
            for (std::size_t i; (i = next.fetch_add(1)) < n;)
                body(t, i);
        });
    }
}

// ---------------------------------------------------------------- output

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

struct Report
{
    std::string workload;
    std::uint64_t seed = 0;
    bool traced = false;
    unsigned jobs = 1;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<Metric> metrics;
    Checks checks;
    std::vector<std::string> notes;
    /** cellJson() of every cell, by cell index. */
    std::vector<std::string> cells;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back(Metric{name, value, unit});
    }
};

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

/** What the gates read from one cell: its digest and figure values. */
std::string
cellJson(const Cell &c, const RunResult &r)
{
    const auto frac = [&](std::size_t k) {
        return k < r.operandSourceFractions.size()
                   ? r.operandSourceFractions[k]
                   : NAN;
    };
    const auto cdf = [&](std::size_t k) {
        return k < r.gapCdf.size() ? r.gapCdf[k] : NAN;
    };
    std::ostringstream os;
    os << "{\"label\": " << jsonString(c.label)
       << ", \"digest\": " << jsonString(resultDigest(r))
       << ", \"ipc\": " << jsonNumber(r.ipc)
       << ", \"cdf9\": " << jsonNumber(cdf(9))
       << ", \"cdf25\": " << jsonNumber(cdf(25))
       << ", \"preread\": " << jsonNumber(frac(0))
       << ", \"fwd\": " << jsonNumber(frac(1))
       << ", \"crc\": " << jsonNumber(frac(2))
       << ", \"miss\": " << jsonNumber(frac(5))
       << ", \"failed\": " << (r.failed ? "true" : "false") << "}";
    return os.str();
}

void
printReport(const Report &rep)
{
    std::ostream &os = std::cout;
    os << "{\"workload\": " << jsonString(rep.workload)
       << ", \"seed\": " << rep.seed
       << ", \"trace\": " << (rep.traced ? 1 : 0)
       << ",\n \"manifest\": {\"build_type\": "
       << jsonString(PERFBENCH_BUILD_TYPE) << ", \"kernel\": "
       << jsonString(defaultKernelMode() == KernelMode::Sparse ? "sparse"
                                                               : "dense")
       << ", \"jobs\": " << rep.jobs << ", \"nproc\": " << hostCpus()
       << ", \"cpu_model\": " << jsonString(cpuModel()) << "}"
       << ",\n \"attempted\": " << rep.attempted
       << ", \"failed\": " << rep.failed << ",\n \"metrics\": {";
    for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
        const Metric &m = rep.metrics[i];
        os << (i ? ",\n   " : "\n   ") << jsonString(m.name)
           << ": {\"value\": " << jsonNumber(m.value)
           << ", \"unit\": " << jsonString(m.unit) << "}";
    }
    os << "},\n \"checks_run\": " << rep.checks.run
       << ", \"check_failures\": [";
    for (std::size_t i = 0; i < rep.checks.failures.size(); ++i) {
        os << (i ? ", " : "") << "["
           << jsonString(rep.checks.failures[i].first) << ", "
           << jsonString(rep.checks.failures[i].second) << "]";
    }
    os << "],\n \"notes\": [";
    for (std::size_t i = 0; i < rep.notes.size(); ++i)
        os << (i ? ", " : "") << jsonString(rep.notes[i]);
    os << "],\n \"cells\": [";
    for (std::size_t i = 0; i < rep.cells.size(); ++i)
        os << (i ? ",\n  " : "\n  ") << rep.cells[i];
    os << "]}\n";
}

// ---------------------------------------------------------------- setup

/** A campaign over part of a workload's cells. */
struct Slice
{
    CampaignPlan plan;
    std::vector<std::size_t> cells; ///< cell index of each plan slot
};

/**
 * Deal the dispatch order into @p k campaigns in snake order (slice 0,
 * 1, ..., k-1, k-1, ..., 0, ...), so every slice gets the same mix of
 * long and short cells and keeps longest-first order.
 */
std::vector<Slice>
sliceOrder(const std::vector<Cell> &cells,
           const std::vector<std::size_t> &order, std::size_t k)
{
    std::vector<Slice> slices(k);
    for (std::size_t s = 0; s < order.size(); ++s) {
        const std::size_t lap = s / k, pos = s % k;
        Slice &sl = slices[lap % 2 ? k - 1 - pos : pos];
        sl.plan.add(cells[order[s]].spec, cells[order[s]].label);
        sl.cells.push_back(order[s]);
    }
    return slices;
}

/** What set-up hands the timed section. */
struct Prepared
{
    std::vector<Cell> cells;
    std::vector<std::size_t> order;
    CampaignPlan plan;
    std::vector<Slice> slices;
    std::vector<Config> resolved;
    std::vector<store::Fingerprint> fps; ///< by cell index
    store::Fingerprint planFp;
};

/**
 * Everything before the first cell is dispatched: plan construction,
 * config resolution, fingerprinting, and opening the store and the
 * journal under @p dir.
 */
Prepared
prepare(const std::string &workload, std::uint64_t seed,
        const std::string &dir, SpanLog *spans)
{
    auto traced = [&](const char *name, auto &&f) {
        if (spans)
            return spans->span(0, name, -1, f);
        return f();
    };
    Prepared p;
    traced("harness.plan_build", [&] {
        p.cells = buildCells(workload, seed);
        p.order = dispatchOrder(p.cells);
        p.plan = buildPlan(p.cells, p.order);
        p.slices = sliceOrder(p.cells, p.order,
                              workload == "harness_churn" ? kChurnSlices
                                                          : kPaperSlices);
        return 0;
    });
    p.resolved.resize(p.cells.size());
    p.fps.resize(p.cells.size());
    traced("harness.setup_resolve", [&] {
        for (std::size_t i = 0; i < p.cells.size(); ++i) {
            p.resolved[i] = effectiveRunConfig(p.cells[i].spec);
            p.fps[i] = store::fingerprintRun(p.cells[i].spec, RetryPolicy{});
        }
        return 0;
    });
    p.planFp = fingerprintPlan(p.plan, RetryPolicy{});
    traced("store.open", [&] {
        store::ResultStore st(dir + "/store");
        store::CampaignJournal journal(dir + "/journal", p.planFp,
                                       p.plan.size());
        return journal.ok();
    });
    return p;
}

/**
 * Repeat set-up until kSetupBudgetS has passed (at least
 * kSetupMinRepeats times), appending each time to @p times; @p since
 * replaces the first repeat's start. The first repeat's plan goes to
 * @p out.
 */
void
measureSetup(const Report &rep, const std::string &work,
             Clock::time_point since, std::vector<double> &times,
             Prepared *out)
{
    const auto start = Clock::now();
    for (unsigned r = 0; r < kSetupMinRepeats ||
                         secondsSince(start) < kSetupBudgetS;
         ++r) {
        const std::string dir =
            work + "/setup" + std::to_string(times.size());
        const auto t0 = r == 0 ? since : Clock::now();
        Prepared p = prepare(rep.workload, rep.seed, dir, nullptr);
        times.push_back(secondsSince(t0));
        if (r == 0 && out)
            *out = std::move(p);
    }
}

/** Record the gate values of @p results (by cell index) in @p rep. */
void
reportCells(Report &rep, const Prepared &p,
            const std::vector<RunResult> &results)
{
    rep.cells.clear();
    for (std::size_t i = 0; i < results.size(); ++i) {
        rep.cells.push_back(cellJson(p.cells[i], results[i]));
        rep.failed += results[i].failed ? 1 : 0;
    }
}

/** Results by cell index from results in plan order. */
std::vector<RunResult>
byCell(const Prepared &p, std::vector<RunResult> planResults)
{
    std::vector<RunResult> out(p.cells.size());
    for (std::size_t s = 0; s < p.order.size(); ++s)
        out[p.order[s]] = std::move(planResults[s]);
    return out;
}

std::uint64_t
simulatedOps(const Prepared &p, const Slice &s)
{
    std::uint64_t ops = 0;
    for (std::size_t i : s.cells)
        ops += p.cells[i].spec.totalOps + p.cells[i].spec.warmupOps;
    return ops;
}

void
checkHealthy(Checks &checks, const Prepared &p,
             const std::vector<RunResult> &results, const char *phase)
{
    for (std::size_t i = 0; i < results.size(); ++i) {
        const RunResult &r = results[i];
        checks.expect(!r.failed && r.cycles > 0,
                      std::string(phase) + " cell healthy",
                      p.cells[i].label + ": " + r.error);
        // Without warmup every requested op is retired in the measured
        // window; with warmup the window starts at a 1024-cycle step,
        // so only the whole run's total is exact.
        if (p.cells[i].spec.warmupOps == 0) {
            checks.expect(r.retired == p.cells[i].spec.totalOps,
                          std::string(phase) + " retired == requested",
                          p.cells[i].label);
        }
    }
}

/** Slice results @p b (in slice plan order) match @p cold (by cell). */
void
checkIdentical(Checks &checks, const Prepared &p, const Slice &s,
               const std::vector<RunResult> &cold,
               const std::vector<RunResult> &b, const std::string &what)
{
    for (std::size_t k = 0; k < s.cells.size(); ++k) {
        const std::size_t i = s.cells[k];
        checks.expect(sameRecord(p.fps[i], cold[i], b[k]),
                      what + " byte-identical", p.cells[i].label);
    }
}

// ---------------------------------------------------------------- untraced

/** One timed round: every slice's cold pass and replay phase. */
struct Round
{
    /** Wall time of the cold passes and of the replay phases (checks
     *  excluded), CPU time of the cold passes, and what they did. */
    double coldWall = 0.0;
    double replayWall = 0.0;
    double coldCpu = 0.0;
    double coldOps = 0.0;
    double replayCells = 0.0;
    /** Per slice, for the report's notes: cells per wall-second of its
     *  cold pass, simulated Mops per CPU-second of it, cells per
     *  wall-second of its replay phase. */
    std::vector<double> coldRates, mopsRates, replayRates;
    CampaignTelemetry coldTelemetry; ///< of the last slice's cold pass
    std::vector<RunResult> cold;     ///< by cell index
};

/**
 * Each slice is a campaign as a user runs one with a store and a
 * journal: its cold pass simulates every cell (harness_churn: in
 * forked workers) and records it, then its replay phase answers the
 * slice from the store (memo cleared per pass) until kReplayLookups
 * cells, and once more from the journal; the phase is timed whole.
 */
Round
runRound(Report &rep, const Prepared &p, const std::vector<Slice> &slices,
         const std::string &dir)
{
    Round round;
    round.cold.resize(p.cells.size());
    const bool isolate = rep.workload == "harness_churn";
    setStorePath(dir + "/store");
    std::uint64_t crcRejects = 0;
    for (const Slice &s : slices) {
        const std::size_t n = s.cells.size();
        // Start from clean writeback: the journal fsyncs each cell, and
        // an fsync also commits whatever an earlier slice left dirty.
        ::sync();
        setJournalPath(dir + "/journal");
        setIsolation(isolate);
        processMemo().clear();

        const double cpu0 = cpuSeconds();
        const auto t0 = Clock::now();
        std::vector<RunResult> cold =
            runCampaign(s.plan, RetryPolicy{}, rep.jobs);
        const double coldWall = secondsSince(t0);
        const double coldCpu = cpuSeconds() - cpu0;
        const double ops = static_cast<double>(simulatedOps(p, s));
        round.coldWall += coldWall;
        round.coldCpu += coldCpu;
        round.coldOps += ops;
        round.coldRates.push_back(static_cast<double>(n) / coldWall);
        round.mopsRates.push_back(ops / 1e6 / coldCpu);
        round.coldTelemetry = lastCampaignTelemetry();
        crcRejects += round.coldTelemetry.store.crcRejects;
        rep.checks.expect(round.coldTelemetry.simulated == n &&
                              round.coldTelemetry.isolatedRuns ==
                                  (isolate ? n : 0) &&
                              round.coldTelemetry.crashes == 0,
                          "cold pass simulated every cell");
        for (std::size_t k = 0; k < n; ++k)
            round.cold[s.cells[k]] = std::move(cold[k]);

        // Replays start from the same state in every slice: written
        // records clean on disk, the cold pass's freed heap returned.
        ::sync();
        ::malloc_trim(0);
        setIsolation(false);
        const std::size_t passes =
            std::max<std::size_t>(1, kReplayLookups / n);
        std::vector<RunResult> warm, resumed;
        std::size_t hits = 0;
        setJournalPath("");
        const auto tp = Clock::now();
        for (std::size_t k = 0; k < passes; ++k) {
            processMemo().clear();
            warm = runCampaign(s.plan, RetryPolicy{}, rep.jobs);
            const CampaignTelemetry t = lastCampaignTelemetry();
            hits += t.store.hits;
            crcRejects += t.store.crcRejects;
        }
        setJournalPath(dir + "/journal");
        processMemo().clear();
        resumed = runCampaign(s.plan, RetryPolicy{}, rep.jobs);
        const double phaseWall = secondsSince(tp);
        const double answered = static_cast<double>((passes + 1) * n);
        round.replayWall += phaseWall;
        round.replayCells += answered;
        round.replayRates.push_back(answered / phaseWall);
        const CampaignTelemetry rt = lastCampaignTelemetry();

        rep.checks.expect(hits == passes * n,
                          "warm passes answered from the store",
                          std::to_string(hits));
        rep.checks.expect(rt.resumed == n && rt.simulated == 0,
                          "resume pass answered from the journal");
        checkIdentical(rep.checks, p, s, round.cold, warm, "warm replay");
        checkIdentical(rep.checks, p, s, round.cold, resumed,
                       "journal resume");
        rep.attempted += (passes + 2) * n;
    }
    checkHealthy(rep.checks, p, round.cold, "cold");
    setJournalPath("");
    setStorePath("");
    rep.checks.expect(crcRejects == 0, "store.crc_rejects == 0",
                      std::to_string(crcRejects));
    return round;
}

/** "name: v1 v2 ..." for the report's notes. */
std::string
samples(const std::string &name, const std::vector<double> &v)
{
    std::ostringstream os;
    os << name << " samples:";
    for (double x : v)
        os << " " << x;
    return os.str();
}

/**
 * End-to-end run: rounds until the budget is spent (at least one).
 * Each round starts from the same process state: the memo is empty and
 * freed heap is returned, so forked workers copy the same footprint.
 * The rates are totals over the whole run (all cells over all wall or
 * CPU time of their phases): the host's speed wanders by tens of
 * percent from one sub-second stretch to the next, and a total
 * averages that out where a median of per-slice rates flips between
 * fast and slow stretches.
 */
void
runEndToEnd(Report &rep, const std::string &work, double budget_s,
            Clock::time_point main_start)
{
    Prepared p;
    std::vector<double> setup, walls, elapsed, cold, warm, rates;
    double coldCells = 0.0, coldWall = 0.0, coldCpu = 0.0, coldOps = 0.0;
    double replayCells = 0.0, replayWall = 0.0;
    measureSetup(rep, work, main_start, setup, &p);
    std::vector<store::Fingerprint> firstRecords;
    const auto section = Clock::now();
    for (unsigned r = 0;; ++r) {
        if (r > 0)
            measureSetup(rep, work, Clock::now(), setup, nullptr);
        processMemo().clear();
        ::malloc_trim(0);
        const auto t0 = Clock::now();
        Round round = runRound(rep, p, p.slices,
                               work + "/round" + std::to_string(r));
        elapsed.push_back(secondsSince(t0));
        walls.push_back(round.coldWall + round.replayWall);
        coldCells += static_cast<double>(p.cells.size());
        coldWall += round.coldWall;
        coldCpu += round.coldCpu;
        coldOps += round.coldOps;
        replayCells += round.replayCells;
        replayWall += round.replayWall;
        cold.insert(cold.end(), round.coldRates.begin(),
                    round.coldRates.end());
        warm.insert(warm.end(), round.replayRates.begin(),
                    round.replayRates.end());
        rates.insert(rates.end(), round.mopsRates.begin(),
                     round.mopsRates.end());
        for (std::size_t i = 0; i < round.cold.size(); ++i) {
            store::Hasher h;
            const std::string rec =
                store::encodeRecord(p.fps[i], round.cold[i]);
            h.bytes(rec.data(), rec.size());
            if (r == 0)
                firstRecords.push_back(h.digest());
            else
                rep.checks.expect(h.digest() == firstRecords[i],
                                  "repeated round byte-identical",
                                  p.cells[i].label);
        }
        if (r == 0)
            reportCells(rep, p, round.cold);
        if (secondsSince(section) + median(elapsed) > budget_s)
            break;
    }
    rep.add("wall_s", median(walls), "s");
    rep.add("sim_mops_per_cpu_s", coldOps / 1e6 / coldCpu, "Mops/cpu-s");
    rep.add("cold_cells_per_s", coldCells / coldWall, "cells/s");
    rep.add("warm_cells_per_s", replayCells / replayWall, "cells/s");
    rep.add("setup_s", median(setup), "s");
    rep.notes.push_back(samples("setup_s", setup));
    rep.notes.push_back(samples("round wall_s", walls));
    rep.notes.push_back(samples("slice sim_mops_per_cpu_s", rates));
    rep.notes.push_back(samples("slice cold_cells_per_s", cold));
    rep.notes.push_back(samples("slice warm_cells_per_s", warm));
}

// ---------------------------------------------------------------- traced

/** Simulated-machine and host-cost aggregates over a set of cells. */
struct SimAggregate
{
    double cellCpu = 0.0;
    double coreTick = 0.0;
    double watchdogTick = 0.0;
    double ticks = 0.0;
    double ops = 0.0;
    double retired = 0.0;
    double cycles = 0.0;
    std::map<std::string, double> sums; ///< scalar sums
    double robOcc = 0.0;                ///< cycle-weighted
    double iqOcc = 0.0;
    double draCells = 0.0;
    double draRetired = 0.0;
    double draOperandMisses = 0.0;
    double draSources[6] = {0, 0, 0, 0, 0, 0};
    double draCpu = 0.0;
    double twinCpu = 0.0;

    void
    add(const Cell &c, const RunResult &r, double cpu, double twin_cpu)
    {
        cellCpu += cpu;
        ops += static_cast<double>(c.spec.totalOps + c.spec.warmupOps);
        for (const ComponentProfile &prof : r.tickProfile) {
            if (prof.name == "core") {
                coreTick += prof.seconds;
                ticks += static_cast<double>(prof.ticks);
            } else if (prof.name == "watchdog") {
                watchdogTick += prof.seconds;
            }
        }
        retired += static_cast<double>(r.retired);
        cycles += static_cast<double>(r.cycles);
        for (const auto &[k, v] : r.scalars)
            sums[k] += v;
        robOcc += r.scalar("robOccupancy") * static_cast<double>(r.cycles);
        iqOcc += r.scalar("iqOccupancy") * static_cast<double>(r.cycles);
        if (c.dra) {
            draCells += 1;
            draRetired += static_cast<double>(r.retired);
            draOperandMisses += r.scalar("operandMissEvents");
            for (std::size_t k = 0; k < 6 && k < r.operandSourceCounts.size();
                 ++k)
                draSources[k] += r.operandSourceCounts[k];
            draCpu += cpu;
            twinCpu += twin_cpu;
        }
    }

    void
    report(Report &rep) const
    {
        const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
        const double kops = retired / 1000.0;
        rep.add("sim.core_tick_s", coreTick, "s");
        rep.add("sim.core_tick_share", ratio(coreTick, cellCpu), "fraction");
        rep.add("sim.ticks_per_kop", ratio(ticks, ops / 1000.0), "ticks/kop");
        rep.add("sim.host_ns_per_op", ratio(cellCpu * 1e9, ops), "ns/op");
        rep.add("sim.host_ns_per_tick", ratio(cellCpu * 1e9, ticks), "ns");
        rep.add("integrity.watchdog_tick_share",
                ratio(watchdogTick, coreTick + watchdogTick), "fraction");
        const auto s = [&](const char *k) {
            auto it = sums.find(k);
            return it == sums.end() ? 0.0 : it->second;
        };
        rep.add("core.ipc", ratio(retired, cycles), "ops/cycle");
        rep.add("core.wrong_path_frac",
                ratio(s("wrongPathFetched"),
                      s("wrongPathFetched") + s("fetched")),
                "fraction");
        rep.add("core.reissue_frac", ratio(s("reissued"), s("issued")),
                "fraction");
        rep.add("core.rob_occupancy", ratio(robOcc, cycles), "entries");
        rep.add("core.iq_occupancy", ratio(iqOcc, cycles), "entries");
        rep.add("branch.mispredicts_per_kop",
                ratio(s("branchMispredicts"), kops), "1/kop");
        rep.add("mem.load_miss_per_kop", ratio(s("loadMissEvents"), kops),
                "1/kop");
        rep.add("mem.tlb_traps_per_kop", ratio(s("tlbTraps"), kops), "1/kop");
        rep.add("mem.order_traps_per_kop", ratio(s("memOrderTraps"), kops),
                "1/kop");
        double sources = 0.0;
        for (double v : draSources)
            sources += v;
        rep.add("dra.cells", draCells, "count");
        rep.add("dra.preread_frac", ratio(draSources[0], sources), "fraction");
        rep.add("dra.fwd_frac", ratio(draSources[1], sources), "fraction");
        rep.add("dra.crc_frac", ratio(draSources[2], sources), "fraction");
        rep.add("dra.operand_miss_per_kop",
                ratio(draOperandMisses, draRetired / 1000.0), "1/kop");
        rep.add("dra.cell_cpu_overhead",
                twinCpu > 0 ? draCpu / twinCpu - 1.0 : 0.0, "ratio");
    }
};

/** Per-cell results of the traced cold pass. */
struct TracedCell
{
    RunResult result;
    double cpu = 0.0; ///< simulation CPU (in-process run)
};

/**
 * Traced run: an untraced reference pass, then the same cells driven
 * through the public per-cell calls runCampaign composes, at the same
 * worker count, with spans around each call.
 */
void
runTraced(Report &rep, const std::string &work, const std::string &spans_path)
{
    const bool churn = rep.workload == "harness_churn";
    const auto epoch = Clock::now();
    SpanLog spans(rep.jobs, epoch);
    const std::string dir = work + "/traced";

    // Untraced reference at the same worker count.
    Prepared p = prepare(rep.workload, rep.seed, work + "/setup-ref", nullptr);
    const Round reference =
        runRound(rep, p, {Slice{p.plan, p.order}}, work + "/reference");
    const double untracedWall = reference.coldWall;
    const CampaignTelemetry &tel = reference.coldTelemetry;

    // Set-up again, traced.
    p = spans.span(0, "harness.setup", -1, [&] {
        return prepare(rep.workload, rep.seed, dir + "/setup", &spans);
    });
    const std::size_t n = p.cells.size();

    setTickProfiling(true);
    processMemo().clear();
    store::ResultStore st(dir + "/store");
    auto journal = std::make_unique<store::CampaignJournal>(
        dir + "/journal", p.planFp, n);
    std::vector<TracedCell> traced(n);
    const RetryPolicy policy{};

    // Cold pass: resolve, fingerprint, memo, store, run, insert, append.
    const auto tc = Clock::now();
    runPool(rep.jobs, n, [&](unsigned tid, std::size_t slot) {
        const std::size_t i = p.order[slot];
        const Cell &c = p.cells[i];
        const long id = static_cast<long>(i);
        spans.span(tid, "harness.cell", id, [&] {
            const Config cfg = spans.span(tid, "harness.config_resolve", id,
                                          [&] { return effectiveRunConfig(c.spec); });
            const store::Fingerprint fp = spans.span(
                tid, "store.fingerprint", id,
                [&] { return store::fingerprintRun(c.spec, policy); });
            auto memo = spans.span(tid, "store.memo_lookup", id,
                                   [&] { return processMemo().lookup(fp); });
            auto hit = spans.span(tid, "store.lookup_miss", id,
                                  [&] { return st.lookup(fp); });
            rep.checks.expect(!memo && !hit, "cold cell misses every cache",
                              c.label);
            RunResult r;
            if (churn) {
                r = spans.span(tid, "harness.supervise", id, [&] {
                    return runCellSupervised(c.spec, policy, c.label).result;
                });
            } else {
                r = spans.span(tid, "sim.run", id, [&] {
                    const double cpu0 = threadCpuSeconds();
                    RunResult out = runOnceResilientWith(c.spec, cfg, policy);
                    traced[i].cpu = threadCpuSeconds() - cpu0;
                    return out;
                });
            }
            spans.span(tid, "store.insert", id, [&] { return st.insert(fp, r); });
            spans.span(tid, "store.journal_append", id, [&] {
                journal->append(fp, r);
                return 0;
            });
            spans.span(tid, "store.memo_insert", id, [&] {
                processMemo().insert(fp, r);
                return 0;
            });
            traced[i].result = std::move(r);
            return 0;
        });
    });
    const double tracedWall = secondsSince(tc);
    rep.attempted += n;

    // harness_churn simulated in forked workers: rerun each cell in
    // process (untimed against the pass) for its simulation cost, and
    // check the supervised result is byte-identical to it.
    if (churn) {
        runPool(rep.jobs, n, [&](unsigned tid, std::size_t slot) {
            const std::size_t i = p.order[slot];
            const Cell &c = p.cells[i];
            RunResult r = spans.span(tid, "sim.run", static_cast<long>(i), [&] {
                const double cpu0 = threadCpuSeconds();
                RunResult out = runOnceResilientWith(c.spec, p.resolved[i], policy);
                traced[i].cpu = threadCpuSeconds() - cpu0;
                return out;
            });
            rep.checks.expect(sameRecord(p.fps[i], r, traced[i].result),
                              "supervised == in-process", c.label);
            traced[i].result.tickProfile = std::move(r.tickProfile);
        });
        rep.attempted += n;
    }
    setTickProfiling(false);

    // Harness, store and supervisor self time over the pool's time. A
    // supervised cell's simulation runs in the child, inside the
    // harness.supervise span: its in-process sim.run time comes off.
    const double simSeconds = spans.total("sim.run");
    const double infraSelf =
        spans.cellSelfTime({"harness.", "store."}) - (churn ? simSeconds : 0.0);
    const double poolSeconds = tracedWall * rep.jobs;

    // Warm pass (memo cleared): fingerprint, memo, store hit + decode.
    processMemo().clear();
    journal.reset();
    for (std::size_t i = 0; i < n; ++i) {
        const Cell &c = p.cells[i];
        const long id = static_cast<long>(i);
        const store::Fingerprint fp = spans.span(
            0, "store.fingerprint_warm", id,
            [&] { return store::fingerprintRun(c.spec, policy); });
        auto memo = spans.span(0, "store.memo_lookup", id,
                               [&] { return processMemo().lookup(fp); });
        auto hit = spans.span(0, "store.lookup", id, [&] { return st.lookup(fp); });
        rep.checks.expect(!memo && hit && sameRecord(fp, *hit, traced[i].result),
                          "warm store hit byte-identical", c.label);
    }
    std::vector<double> recordBytes;
    for (std::size_t i = 0; i < n; ++i) {
        std::ifstream in(st.recordPath(p.fps[i]), std::ios::binary);
        std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
        recordBytes.push_back(static_cast<double>(bytes.size()));
        RunResult decoded;
        const bool ok = spans.span(0, "store.decode", static_cast<long>(i), [&] {
            return store::decodeRecord(bytes, p.fps[i], decoded);
        });
        rep.checks.expect(ok, "record decodes", p.cells[i].label);
    }
    std::size_t replayed = spans.span(0, "store.journal_replay", -1, [&] {
        store::CampaignJournal j(dir + "/journal", p.planFp, n);
        return j.replayed().size();
    });
    rep.checks.expect(replayed == n, "journal replays every cell",
                      std::to_string(replayed));
    rep.attempted += 2 * n;
    const store::StoreStats ss = st.stats();
    rep.checks.expect(ss.crcRejects == 0, "store.crc_rejects == 0");

    // Isolation overhead: supervised minus in-process, on short cells
    // (harness_churn: every cell, measured above).
    std::vector<double> supervise, inproc;
    if (churn) {
        supervise = spans.durations("harness.supervise");
        inproc = spans.durations("sim.run");
    } else {
        std::vector<Cell> probe = buildCells("harness_churn", rep.seed);
        probe.resize(kIsolateProbeCells);
        for (std::size_t i = 0; i < probe.size(); ++i) {
            const Cell &c = probe[i];
            const long id = -2 - static_cast<long>(i);
            const Config cfg = effectiveRunConfig(c.spec);
            RunResult a = spans.span(0, "harness.supervise_probe", id, [&] {
                return runCellSupervised(c.spec, policy, c.label).result;
            });
            RunResult b = spans.span(0, "sim.run_probe", id, [&] {
                return runOnceResilientWith(c.spec, cfg, policy);
            });
            rep.checks.expect(sameRecord(store::Fingerprint{}, a, b),
                              "supervised == in-process", c.label);
        }
        supervise = spans.durations("harness.supervise_probe");
        inproc = spans.durations("sim.run_probe");
        rep.attempted += 2 * probe.size();
    }

    // Workload generator alone, per SPEC95 profile.
    double genOps = 0.0, genTime = 0.0;
    for (const std::string &name : spec95Names()) {
        BenchmarkProfile prof = spec95Profile(name);
        prof.seed += rep.seed;
        genTime += spans.span(0, "workload.generate", -1, [&] {
            const auto t0 = Clock::now();
            SyntheticTraceGenerator gen(prof, 0, kGenOps);
            MicroOp op;
            std::uint64_t produced = 0;
            while (gen.next(op))
                ++produced;
            genOps += static_cast<double>(produced);
            return secondsSince(t0);
        });
    }

    // ---- per-layer metrics
    std::vector<double> cellTimes = spans.durations("harness.cell");
    double workerSeconds = 0.0, busy = 0.0, claim = 0.0, idle = 0.0;
    for (const WorkerTelemetry &w : tel.workers) {
        busy += w.busySeconds;
        claim += w.claimWaitSeconds;
        idle += w.idleSeconds;
        workerSeconds += w.busySeconds + w.claimWaitSeconds + w.idleSeconds;
    }
    rep.add("harness.plan_build_s", spans.total("harness.plan_build"), "s");
    rep.add("harness.config_resolve_s", spans.total("harness.config_resolve"),
            "s");
    rep.add("harness.cell_s.p50", percentile(cellTimes, 0.5), "s");
    rep.add("harness.cell_s.p99", percentile(cellTimes, 0.99), "s");
    rep.add("harness.worker_busy_frac",
            workerSeconds > 0 ? busy / workerSeconds : 0.0, "fraction");
    rep.add("harness.claim_wait_s", claim, "s");
    rep.add("harness.tail_idle_s", idle, "s");
    rep.add("harness.isolate_overhead_ms_per_cell",
            (mean(supervise) - mean(inproc)) * 1e3, "ms");
    rep.add("harness.infra_self_share", infraSelf / poolSeconds, "fraction");
    rep.add("store.fingerprint_us", mean(spans.durations("store.fingerprint")) * 1e6,
            "us");
    rep.add("store.memo_lookup_us",
            mean(spans.durations("store.memo_lookup")) * 1e6, "us");
    rep.add("store.lookup_us", mean(spans.durations("store.lookup")) * 1e6, "us");
    rep.add("store.decode_us", mean(spans.durations("store.decode")) * 1e6, "us");
    rep.add("store.journal_replay_us",
            spans.total("store.journal_replay") / static_cast<double>(n) * 1e6,
            "us");
    rep.add("store.insert_us", mean(spans.durations("store.insert")) * 1e6, "us");
    rep.add("store.journal_append_us",
            mean(spans.durations("store.journal_append")) * 1e6, "us");
    rep.add("store.record_bytes", mean(recordBytes), "B");
    rep.add("store.crc_rejects", static_cast<double>(ss.crcRejects), "count");
    rep.add("workload.gen_mops_per_s", genTime > 0 ? genOps / 1e6 / genTime : 0.0,
            "Mops/s");

    SimAggregate agg;
    std::vector<RunResult> results(n);
    for (std::size_t i = 0; i < n; ++i) {
        const Cell &c = p.cells[i];
        agg.add(c, traced[i].result, traced[i].cpu,
                c.twin >= 0 ? traced[static_cast<std::size_t>(c.twin)].cpu : 0.0);
        results[i] = std::move(traced[i].result);
    }
    agg.report(rep);
    checkHealthy(rep.checks, p, results, "traced");

    rep.add("trace.untraced_wall_s", untracedWall, "s");
    rep.add("trace.traced_wall_s", tracedWall, "s");
    rep.add("trace.overhead_frac", tracedWall / untracedWall - 1.0, "ratio");
    rep.notes.push_back("traced pass uses the same fixed worker count (" +
                        std::to_string(rep.jobs) +
                        ") as the end-to-end run; warm, decode, replay "
                        "and probe phases are serial");
    spans.write(spans_path, rep.workload);
    reportCells(rep, p, results);
}

// ---------------------------------------------------------------- cross-check

/** The paper workloads' cells reproduce what fig5/fig8 print. */
int
crosscheck(const std::string &work)
{
    int bad = 0;
    auto cellsOf = [&](const std::string &workload) {
        Prepared p = prepare(workload, 0, work + "/xc", nullptr);
        processMemo().clear();
        std::vector<RunResult> res =
            byCell(p, runCampaign(p.plan, RetryPolicy{},
                                  std::min(kJobs, hostCpus())));
        std::map<std::string, RunResult> out;
        for (std::size_t i = 0; i < res.size(); ++i)
            out[p.cells[i].label] = res[i];
        return out;
    };
    auto compare = [&](const FigureData &fig,
                       const std::map<std::string, RunResult> &cells,
                       const std::vector<std::pair<std::string, std::string>> &cols) {
        std::size_t checked = 0;
        for (std::size_t row = 0; row < fig.rowLabels.size(); ++row) {
            const std::string &wl = fig.rowLabels[row];
            for (std::size_t c = 0; c < cols.size(); ++c) {
                const double ours = speedup(cells.at(wl + "/" + cols[c].first),
                                            cells.at(wl + "/" + cols[c].second));
                const double theirs = fig.columns[c].values[row];
                ++checked;
                if (ours != theirs) {
                    ++bad;
                    std::cerr << fig.title << ": " << wl << " col " << c
                              << " figure " << theirs << " bench " << ours
                              << "\n";
                }
            }
        }
        std::cerr << "crosscheck: " << checked << " values of \""
                  << fig.title << "\" compared\n";
    };
    const auto base = cellsOf("paper_base");
    processMemo().clear();
    compare(figure5(kPaperOps), base,
            {{"3_9", "3_9"}, {"5_7", "3_9"}, {"7_5", "3_9"}, {"9_3", "3_9"}});
    processMemo().clear();
    compare(figure4(kPaperOps), base,
            {{"3_3", "3_3"}, {"5_5", "3_3"}, {"7_7", "3_3"}, {"9_9", "3_3"}});
    const auto dra = cellsOf("paper_dra");
    processMemo().clear();
    compare(figure8(kPaperOps), dra,
            {{"dra_rf3", "base_rf3"}, {"dra_rf5", "base_rf5"},
             {"dra_rf7", "base_rf7"}});
    std::cout << "{\"crosscheck_mismatches\": " << bad << "}\n";
    return bad ? 1 : 0;
}

int
usage()
{
    std::cerr << "usage: loopsim_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --work DIR [--spans FILE]\n"
                 "       loopsim_perfbench --crosscheck --work DIR\n";
    return 2;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const auto mainStart = Clock::now();
    std::string workload, work, spans;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false, xcheck = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool more = i + 1 < argc;
        if (a == "--workload" && more)
            workload = argv[++i];
        else if (a == "--seed" && more)
            seed = std::stoull(argv[++i]);
        else if (a == "--seconds" && more)
            seconds = std::stod(argv[++i]);
        else if (a == "--trace" && more)
            trace = std::string(argv[++i]) == "1";
        else if (a == "--work" && more)
            work = argv[++i];
        else if (a == "--spans" && more)
            spans = argv[++i];
        else if (a == "--crosscheck")
            xcheck = true;
        else
            return usage();
    }
    if (work.empty() || (trace && spans.empty()))
        return usage();
    fs::create_directories(work);
    if (xcheck)
        return crosscheck(work);
    if (workload != "paper_base" && workload != "paper_dra" &&
        workload != "harness_churn")
        return usage();

    Report rep;
    rep.workload = workload;
    rep.seed = seed;
    rep.traced = trace;
    rep.jobs = std::min(kJobs, hostCpus());

    if (trace) {
        runTraced(rep, work, spans);
        printReport(rep);
        return 0;
    }

    runEndToEnd(rep, work, seconds, mainStart);
    rep.add("peak_rss_mb", peakRssMb(), "MB");
    printReport(rep);
    return 0;
}
