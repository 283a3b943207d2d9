/**
 * @file
 * Tests for the persistent content-addressed result store: fingerprint
 * canonicality (permutation/channel independence, total input
 * coverage), record round-trips and tamper rejection, the campaign
 * executor's lookup-before-simulate path (memo dedup, warm-store
 * byte-identity at any job count, corruption degrading to a miss),
 * the trace-collection bypass, and the maintenance operations behind
 * the loopsim-store CLI (verify, gc eviction order).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "../bench/bench_util.hh"
#include "harness/campaign.hh"
#include "harness/experiment.hh"
#include "harness/figures.hh"
#include "harness/report.hh"
#include "store/fingerprint.hh"
#include "store/record.hh"
#include "store/result_store.hh"
#include "trace/loop_trace.hh"

using namespace loopsim;
namespace fs = std::filesystem;

namespace
{

RunSpec
storeSpec(const std::string &workload, std::uint64_t ops)
{
    RunSpec spec;
    spec.workload = resolveWorkload(workload);
    spec.totalOps = ops;
    spec.warmupOps = 800;
    return spec;
}

/** Same deliberately-wedged configuration the campaign tests use: the
 *  fail-soft path fires quickly and deterministically. */
Config
wedgeConfig()
{
    Config cfg;
    cfg.setBool("integrity.fault.enable", true);
    cfg.setDouble("integrity.fault.wakeup_drop", 1.0);
    cfg.setUint("integrity.watchdog.window", 10000);
    cfg.setUint("integrity.retry.attempts", 1);
    return cfg;
}

/** A fresh, empty store directory under the test temp root.  The pid suffix
 *  keeps the aggregate and label-specific test binaries (which compile the
 *  same sources) from clobbering each other when ctest runs them in
 *  parallel. */
fs::path
freshDir(const std::string &name)
{
    fs::path dir =
        fs::path(::testing::TempDir()) / (name + "." + std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

/** Flip one byte of the file at @p path. */
void
flipByte(const std::string &path, std::size_t offset)
{
    std::string bytes = readFile(path);
    ASSERT_LT(offset, bytes.size());
    bytes[offset] = static_cast<char>(bytes[offset] ^ 0x5a);
    writeFile(path, bytes);
}

/** A RunResult exercising every persisted field. */
RunResult
sampleResult(std::uint32_t salt)
{
    RunResult r;
    r.workloadLabel = "synthetic-" + std::to_string(salt);
    r.pipeLabel = "5_5";
    r.cycles = 123456789 + salt;
    r.retired = 424242 + salt;
    r.ipc = 1.25 + 0.001 * salt;
    r.operandSourceFractions = {0.1, 0.2, 0.3, 0.15, 0.15, 0.1};
    r.operandSourceCounts = {10, 20, 30, 15, 15, 10};
    for (int i = 0; i <= 128; ++i)
        r.gapCdf.push_back(std::min(1.0, i / 100.0));
    r.scalars["core.retired"] = 424242.0 + salt;
    r.scalars["dra.preread_hits"] = 77.5;
    return r;
}

/** Two workloads x {base, dra}: the smallest plan that still has a
 *  figure-shaped row/column structure. */
CampaignPlan
fourCellPlan(std::uint64_t ops)
{
    CampaignPlan plan;
    for (const char *w : {"gcc", "swim"}) {
        RunSpec base = storeSpec(w, ops);
        plan.add(std::move(base), std::string(w) + "/base");
        RunSpec dra = storeSpec(w, ops);
        setDraPipeline(dra.overrides, 5);
        plan.add(std::move(dra), std::string(w) + "/dra");
    }
    return plan;
}

/** Assemble + render the 4-cell plan's results the way the figure
 *  drivers do; byte-identity of this string is the acceptance bar. */
std::string
renderFourCells(const std::vector<RunResult> &results)
{
    FigureData fig;
    fig.title = "store determinism probe";
    fig.valueUnit = "IPC";
    fig.columns.push_back(Series{"base", {}});
    fig.columns.push_back(Series{"dra", {}});
    for (std::size_t wi = 0; wi < 2; ++wi) {
        fig.rowLabels.push_back(results[wi * 2].workloadLabel);
        for (std::size_t p = 0; p < 2; ++p) {
            const RunResult &r = results[wi * 2 + p];
            fig.columns[p].values.push_back(
                r.failed ? std::nan("") : r.ipc);
        }
    }
    std::ostringstream os;
    printFigure(os, fig);
    printCsv(os, fig);
    return os.str();
}

/** Hermetic store state around every test: no store directory (even
 *  if LOOPSIM_STORE is exported), an empty memo, automatic jobs. */
class StoreEnv : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        store::resetProcessStore();
        store::setStorePath("");
        setCampaignJobs(0);
    }

    void
    TearDown() override
    {
        trace::setCollection(false);
        trace::takeCollectedRuns();
        clearRunOverlay();
        store::resetProcessStore();
        store::setStorePath("");
        setCampaignJobs(0);
    }
};

} // anonymous namespace

TEST(StoreFingerprint, HexRoundTripAndParseRejects)
{
    store::Fingerprint fp{0x0123456789abcdefull, 0xfedcba9876543210ull};
    EXPECT_EQ(fp.hex(), "0123456789abcdeffedcba9876543210");

    store::Fingerprint parsed;
    ASSERT_TRUE(store::Fingerprint::parse(fp.hex(), parsed));
    EXPECT_EQ(parsed, fp);

    EXPECT_FALSE(store::Fingerprint::parse("", parsed));
    EXPECT_FALSE(store::Fingerprint::parse(fp.hex().substr(1), parsed));
    EXPECT_FALSE(store::Fingerprint::parse(
        "0123456789abcdeffedcba987654321g", parsed));
}

TEST(StoreFingerprint, TaggedFieldsCannotAlias)
{
    // "" + "ab" must not collide with "a" + "b": every value is
    // length-prefixed behind its field tag.
    store::Hasher h1;
    h1.str("x", "");
    h1.str("y", "ab");
    store::Hasher h2;
    h2.str("x", "a");
    h2.str("y", "b");
    EXPECT_NE(h1.digest(), h2.digest());
}

TEST_F(StoreEnv, FingerprintIgnoresKeyOrderAndOverlayChannel)
{
    const RetryPolicy policy;

    // Same assignments, opposite insertion order.
    RunSpec a = storeSpec("gcc", 3100);
    a.overrides.setUint("integrity.watchdog.window", 123456);
    a.overrides.setUint("integrity.retry.attempts", 2);
    RunSpec b = storeSpec("gcc", 3100);
    b.overrides.setUint("integrity.retry.attempts", 2);
    b.overrides.setUint("integrity.watchdog.window", 123456);
    EXPECT_EQ(store::fingerprintRun(a, policy),
              store::fingerprintRun(b, policy));

    // Same assignment arriving through the programmatic overlay
    // instead of the spec overrides: the fingerprint hashes the
    // *resolved* configuration, so the channel is invisible.
    RunSpec c = storeSpec("gcc", 3100);
    c.overrides.setUint("integrity.retry.attempts", 2);
    Config overlay;
    overlay.setUint("integrity.watchdog.window", 123456);
    setRunOverlay(overlay);
    store::Fingerprint viaOverlay = store::fingerprintRun(c, policy);
    clearRunOverlay();
    EXPECT_EQ(viaOverlay, store::fingerprintRun(a, policy));

    // And with the overlay cleared the fingerprint must differ: the
    // cache key reflects the overlays in force at plan time.
    EXPECT_NE(store::fingerprintRun(c, policy),
              store::fingerprintRun(a, policy));
}

TEST_F(StoreEnv, FingerprintCoversEveryResultShapingInput)
{
    const RetryPolicy policy;
    const RunSpec base = storeSpec("gcc", 3100);

    std::vector<store::Fingerprint> fps;
    fps.push_back(store::fingerprintRun(base, policy));

    RunSpec cfgChange = base;
    cfgChange.overrides.setUint("integrity.watchdog.window", 999999);
    fps.push_back(store::fingerprintRun(cfgChange, policy));

    RunSpec seedChange = base;
    ASSERT_FALSE(seedChange.workload.threads.empty());
    seedChange.workload.threads[0].seed += 1;
    fps.push_back(store::fingerprintRun(seedChange, policy));

    RunSpec opsChange = base;
    opsChange.totalOps += 1;
    fps.push_back(store::fingerprintRun(opsChange, policy));

    RunSpec warmupChange = base;
    warmupChange.warmupOps += 1;
    fps.push_back(store::fingerprintRun(warmupChange, policy));

    RunSpec budgetChange = base;
    budgetChange.maxCycles += 1;
    fps.push_back(store::fingerprintRun(budgetChange, policy));

    RunSpec workloadChange = base;
    workloadChange.workload = resolveWorkload("swim");
    fps.push_back(store::fingerprintRun(workloadChange, policy));

    RetryPolicy moreAttempts;
    moreAttempts.attempts = 5;
    fps.push_back(store::fingerprintRun(base, moreAttempts));

    RetryPolicy wideStride;
    wideStride.seedStride = 7;
    fps.push_back(store::fingerprintRun(base, wideStride));

    for (std::size_t i = 0; i < fps.size(); ++i) {
        for (std::size_t j = i + 1; j < fps.size(); ++j) {
            EXPECT_NE(fps[i], fps[j])
                << "variant " << i << " aliases variant " << j;
        }
    }
}

TEST(StoreRecord, RoundTripPreservesEveryField)
{
    const store::Fingerprint fp{0xdeadbeefcafef00dull, 0x42ull};
    const RunResult in = sampleResult(7);
    const std::string bytes = store::encodeRecord(fp, in);
    ASSERT_GE(bytes.size(), store::kRecordHeaderBytes);

    RunResult out;
    ASSERT_TRUE(store::decodeRecord(bytes, fp, out));
    EXPECT_EQ(out.workloadLabel, in.workloadLabel);
    EXPECT_EQ(out.pipeLabel, in.pipeLabel);
    EXPECT_EQ(out.cycles, in.cycles);
    EXPECT_EQ(out.retired, in.retired);
    EXPECT_EQ(out.ipc, in.ipc);
    EXPECT_FALSE(out.failed);
    EXPECT_TRUE(out.error.empty());
    EXPECT_EQ(out.operandSourceFractions, in.operandSourceFractions);
    EXPECT_EQ(out.operandSourceCounts, in.operandSourceCounts);
    EXPECT_EQ(out.gapCdf, in.gapCdf);
    EXPECT_EQ(out.scalars, in.scalars);

    // A failed result round-trips too (the store never persists one,
    // but the format must not depend on that policy).
    RunResult wedged;
    wedged.workloadLabel = "wedge";
    wedged.pipeLabel = "5_5";
    wedged.failed = true;
    wedged.error = "watchdog: no retirement in window";
    const std::string wbytes = store::encodeRecord(fp, wedged);
    RunResult wout;
    ASSERT_TRUE(store::decodeRecord(wbytes, fp, wout));
    EXPECT_TRUE(wout.failed);
    EXPECT_EQ(wout.error, wedged.error);
}

TEST(StoreRecord, RejectsTamperTruncationAndWrongFingerprint)
{
    const store::Fingerprint fp{0x1111111111111111ull, 0x2222ull};
    const std::string bytes = store::encodeRecord(fp, sampleResult(1));
    RunResult out;

    // Wrong fingerprint: a renamed/misplaced record must not decode.
    EXPECT_FALSE(store::decodeRecord(
        bytes, store::Fingerprint{0x1111111111111111ull, 0x2223ull},
        out));

    // Truncations: shorter than a header, and one byte short.
    EXPECT_FALSE(store::decodeRecord(
        bytes.substr(0, store::kRecordHeaderBytes - 1), fp, out));
    EXPECT_FALSE(store::decodeRecord(
        bytes.substr(0, bytes.size() - 1), fp, out));

    // Trailing garbage: size field no longer matches the buffer.
    EXPECT_FALSE(store::decodeRecord(bytes + "x", fp, out));

    // Payload bit-rot: CRC catches it.
    std::string corrupt = bytes;
    corrupt[store::kRecordHeaderBytes + 3] ^= 0x10;
    EXPECT_FALSE(store::decodeRecord(corrupt, fp, out));

    // Damaged magic.
    std::string badMagic = bytes;
    badMagic[0] ^= 0x01;
    EXPECT_FALSE(store::decodeRecord(badMagic, fp, out));
    store::Fingerprint peeked;
    std::uint32_t schema = 0;
    EXPECT_FALSE(store::peekRecord(badMagic, peeked, schema));

    // The header peek works on a valid record.
    ASSERT_TRUE(store::peekRecord(bytes, peeked, schema));
    EXPECT_EQ(peeked, fp);
    EXPECT_EQ(schema, store::kSchemaVersion);
}

TEST(StoreRecord, SchemaVersionBumpInvalidates)
{
    const store::Fingerprint fp{0xabcdull, 0xef01ull};
    std::string bytes = store::encodeRecord(fp, sampleResult(2));

    // Patch the schema field (offset 4, little-endian u32) to the next
    // version: the record must read as a miss, not as data.
    bytes[4] = static_cast<char>(bytes[4] + 1);
    RunResult out;
    EXPECT_FALSE(store::decodeRecord(bytes, fp, out));

    store::Fingerprint peeked;
    std::uint32_t schema = 0;
    ASSERT_TRUE(store::peekRecord(bytes, peeked, schema));
    EXPECT_EQ(schema, store::kSchemaVersion + 1);
}

TEST_F(StoreEnv, ResultStoreLookupInsertAndCorruptionAsMiss)
{
    const fs::path dir = freshDir("lsr_basic");
    store::ResultStore st(dir.string());
    const store::Fingerprint fp{0x77ull << 56, 0x1234ull};

    EXPECT_FALSE(st.lookup(fp).has_value());
    EXPECT_EQ(st.stats().misses, 1u);
    EXPECT_EQ(st.stats().crcRejects, 0u);

    const RunResult in = sampleResult(3);
    ASSERT_TRUE(st.insert(fp, in));
    EXPECT_EQ(st.stats().inserts, 1u);
    EXPECT_GT(st.stats().bytesWritten, 0u);
    ASSERT_TRUE(fs::exists(st.recordPath(fp)));

    auto hit = st.lookup(fp);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->ipc, in.ipc);
    EXPECT_EQ(st.stats().hits, 1u);
    EXPECT_GT(st.stats().bytesRead, 0u);

    // Payload corruption: a miss plus a CRC reject, never bad data.
    flipByte(st.recordPath(fp), store::kRecordHeaderBytes + 5);
    EXPECT_FALSE(st.lookup(fp).has_value());
    EXPECT_EQ(st.stats().crcRejects, 1u);
    EXPECT_EQ(st.stats().misses, 2u);

    // A schema bump on disk reads as a miss the same way.
    ASSERT_TRUE(st.insert(fp, in));
    {
        std::string bytes = readFile(st.recordPath(fp));
        bytes[4] = static_cast<char>(bytes[4] + 1);
        writeFile(st.recordPath(fp), bytes);
    }
    EXPECT_FALSE(st.lookup(fp).has_value());
    EXPECT_EQ(st.stats().crcRejects, 2u);

    // Truncation below a header too.
    ASSERT_TRUE(st.insert(fp, in));
    writeFile(st.recordPath(fp), "short");
    EXPECT_FALSE(st.lookup(fp).has_value());
    EXPECT_EQ(st.stats().crcRejects, 3u);

    // Re-insert heals the store.
    ASSERT_TRUE(st.insert(fp, in));
    EXPECT_TRUE(st.lookup(fp).has_value());
}

TEST_F(StoreEnv, CampaignMemoDeduplicatesWithoutStoreDir)
{
    ASSERT_FALSE(store::storeConfigured());

    CampaignPlan plan;
    plan.add(storeSpec("gcc", 2300), "a");
    plan.add(storeSpec("gcc", 2300), "a-again"); // identical plan point
    plan.add(storeSpec("swim", 2300), "b");

    std::vector<RunResult> results = runCampaign(plan, {}, 2);
    CampaignTelemetry t = lastCampaignTelemetry();
    EXPECT_EQ(t.runs, 3u);
    EXPECT_EQ(t.simulated, 2u);
    EXPECT_EQ(t.memoHits, 1u);
    EXPECT_EQ(t.store.hits + t.store.misses + t.store.inserts, 0u);

    ASSERT_FALSE(results[0].failed);
    EXPECT_EQ(results[0].ipc, results[1].ipc);
    EXPECT_EQ(results[0].cycles, results[1].cycles);
    EXPECT_EQ(results[0].workloadLabel, results[1].workloadLabel);

    // A second campaign over the same plan is answered entirely from
    // the in-process memo.
    runCampaign(plan, {}, 2);
    t = lastCampaignTelemetry();
    EXPECT_EQ(t.simulated, 0u);
    EXPECT_EQ(t.memoHits, 3u);
}

TEST_F(StoreEnv, WarmStoreRerunIsByteIdenticalAtAnyJobs)
{
    const fs::path dir = freshDir("lsr_warm");
    store::setStorePath(dir.string());

    CampaignPlan plan = fourCellPlan(2400);

    // Cold, serial.
    std::string cold = renderFourCells(runCampaign(plan, {}, 1));
    CampaignTelemetry t = lastCampaignTelemetry();
    EXPECT_EQ(t.simulated, 4u);
    EXPECT_EQ(t.store.misses, 4u);
    EXPECT_EQ(t.store.inserts, 4u);
    EXPECT_EQ(t.store.hits, 0u);
    EXPECT_GT(t.store.bytesWritten, 0u);

    // Warm, parallel: drop the memo so every answer must come off
    // disk, then demand zero simulations and byte-identical output.
    store::processMemo().clear();
    std::string warm = renderFourCells(runCampaign(plan, {}, 8));
    t = lastCampaignTelemetry();
    EXPECT_EQ(t.simulated, 0u);
    EXPECT_EQ(t.store.hits, 4u);
    EXPECT_EQ(t.store.misses, 0u);
    EXPECT_EQ(t.store.inserts, 0u);
    EXPECT_EQ(warm, cold);
}

TEST_F(StoreEnv, CorruptRecordDegradesToOneResimulation)
{
    const fs::path dir = freshDir("lsr_corrupt");
    store::setStorePath(dir.string());

    CampaignPlan plan = fourCellPlan(2450);
    std::string cold = renderFourCells(runCampaign(plan, {}, 1));

    // Rot one record on disk.
    const store::Fingerprint fp =
        store::fingerprintRun(plan.at(0).spec, RetryPolicy{});
    ASSERT_NE(store::processStore(), nullptr);
    const std::string path = store::processStore()->recordPath(fp);
    ASSERT_TRUE(fs::exists(path));
    flipByte(path, store::kRecordHeaderBytes + 2);

    // The damaged cell re-simulates; the figure is still identical,
    // and the fresh result heals the store.
    store::processMemo().clear();
    std::string healed = renderFourCells(runCampaign(plan, {}, 4));
    CampaignTelemetry t = lastCampaignTelemetry();
    EXPECT_EQ(t.simulated, 1u);
    EXPECT_EQ(t.store.hits, 3u);
    EXPECT_EQ(t.store.crcRejects, 1u);
    EXPECT_EQ(t.store.inserts, 1u);
    EXPECT_EQ(healed, cold);

    const store::VerifyReport report = store::verifyStore(dir.string());
    EXPECT_EQ(report.records, 4u);
    EXPECT_EQ(report.corrupt, 0u);
}

TEST_F(StoreEnv, FailedRunsMemoizedButNeverPersisted)
{
    const fs::path dir = freshDir("lsr_failsoft");
    store::setStorePath(dir.string());

    CampaignPlan plan;
    RunSpec wedge = storeSpec("gcc", 2600);
    wedge.overrides = wedgeConfig();
    plan.add(std::move(wedge), "wedge");
    plan.add(storeSpec("swim", 2600), "healthy");

    runCampaign(plan, {}, 2);
    CampaignTelemetry t = lastCampaignTelemetry();
    EXPECT_EQ(t.failures, 1u);
    EXPECT_EQ(t.simulated, 2u);
    EXPECT_EQ(t.store.inserts, 1u); // only the healthy cell

    const store::Fingerprint wedgeFp =
        store::fingerprintRun(plan.at(0).spec, RetryPolicy{});
    EXPECT_FALSE(
        fs::exists(store::processStore()->recordPath(wedgeFp)));

    // Within the process the wedge answer comes from the memo...
    std::vector<RunResult> again = runCampaign(plan, {}, 2);
    t = lastCampaignTelemetry();
    EXPECT_EQ(t.simulated, 0u);
    EXPECT_TRUE(again[0].failed);

    // ...but a "new binary" (cleared memo) retries it against the
    // store and simulates only the wedge again.
    store::processMemo().clear();
    runCampaign(plan, {}, 2);
    t = lastCampaignTelemetry();
    EXPECT_EQ(t.simulated, 1u);
    EXPECT_EQ(t.store.hits, 1u);
    EXPECT_EQ(t.failures, 1u);
}

TEST_F(StoreEnv, TraceCollectionBypassesMemoAndStore)
{
    const fs::path dir = freshDir("lsr_trace");
    store::setStorePath(dir.string());

    CampaignPlan plan;
    plan.add(storeSpec("gcc", 2700), "t0");
    plan.add(storeSpec("swim", 2700), "t1");

    runCampaign(plan, {}, 1); // warm everything
    ASSERT_EQ(lastCampaignTelemetry().store.inserts, 2u);

    trace::setCollection(true);
    runCampaign(plan, {}, 1);
    CampaignTelemetry t = lastCampaignTelemetry();
    trace::setCollection(false);

    // Both caches are warm, yet every cell simulated: traces must come
    // from real executions, and nothing is inserted either.
    EXPECT_EQ(t.simulated, 2u);
    EXPECT_EQ(t.memoHits, 0u);
    EXPECT_EQ(t.store.hits + t.store.misses + t.store.inserts, 0u);

    std::vector<trace::RunTrace> collected = trace::takeCollectedRuns();
    ASSERT_EQ(collected.size(), 2u);
    EXPECT_FALSE(collected[0].events.empty());
    EXPECT_EQ(store::scanStore(dir.string(), false).size(), 2u);
}

TEST_F(StoreEnv, VerifyReportsCorruptionAndGcEvictsInvalidThenOldest)
{
    const fs::path dir = freshDir("lsr_gc");
    store::ResultStore st(dir.string());

    // Four records in distinct fan-out directories.
    std::vector<store::Fingerprint> fps;
    for (std::uint64_t i = 0; i < 4; ++i) {
        fps.push_back(store::Fingerprint{(i + 1) << 56 | 0x7ull,
                                         0x1000 + i});
        ASSERT_TRUE(st.insert(fps.back(),
                              sampleResult(static_cast<std::uint32_t>(i))));
    }

    // scanStore lists them sorted by fingerprint.
    auto entries = store::scanStore(dir.string(), true);
    ASSERT_EQ(entries.size(), 4u);
    for (std::size_t i = 1; i < entries.size(); ++i)
        EXPECT_TRUE(entries[i - 1].fp < entries[i].fp);
    for (const store::StoreEntry &e : entries)
        EXPECT_TRUE(e.valid);

    store::VerifyReport clean = store::verifyStore(dir.string());
    EXPECT_EQ(clean.records, 4u);
    EXPECT_EQ(clean.corrupt, 0u);

    // Corrupt record 3; age records 0 < 1 < 2 by mtime.
    flipByte(st.recordPath(fps[3]), store::kRecordHeaderBytes + 1);
    const auto now = fs::last_write_time(st.recordPath(fps[2]));
    fs::last_write_time(st.recordPath(fps[0]),
                        now - std::chrono::hours(3));
    fs::last_write_time(st.recordPath(fps[1]),
                        now - std::chrono::hours(2));

    store::VerifyReport damaged = store::verifyStore(dir.string());
    EXPECT_EQ(damaged.corrupt, 1u);
    ASSERT_EQ(damaged.corruptPaths.size(), 1u);
    EXPECT_EQ(damaged.corruptPaths[0], st.recordPath(fps[3]));

    // Budget for exactly the two newest valid records: gc removes the
    // corrupt record first, then the oldest valid one.
    const std::uint64_t budget =
        fs::file_size(st.recordPath(fps[1])) +
        fs::file_size(st.recordPath(fps[2]));
    store::GcReport gc = store::gcStore(dir.string(), budget);
    EXPECT_EQ(gc.scanned, 4u);
    EXPECT_EQ(gc.removed, 2u);
    EXPECT_LE(gc.bytesAfter, budget);
    EXPECT_FALSE(fs::exists(st.recordPath(fps[0])));
    EXPECT_FALSE(fs::exists(st.recordPath(fps[3])));
    EXPECT_TRUE(fs::exists(st.recordPath(fps[1])));
    EXPECT_TRUE(fs::exists(st.recordPath(fps[2])));

    // gc to zero empties the store and prunes the fan-out dirs.
    store::GcReport drain = store::gcStore(dir.string(), 0);
    EXPECT_EQ(drain.removed, 2u);
    EXPECT_EQ(drain.bytesAfter, 0u);
    EXPECT_TRUE(store::scanStore(dir.string(), false).empty());
    // Only the advisory lock file survives a gc-to-zero; every record
    // and fan-out directory is gone.
    for (const fs::directory_entry &entry : fs::directory_iterator(dir))
        EXPECT_EQ(entry.path().filename(), ".lock");
}

TEST(StoreBenchFlag, StoreWithoutPathExitsWithUsage)
{
    char bench[] = "bench";
    char flagBare[] = "--store";
    // A trailing bare --store is caught by the generic flag parser,
    // --store= by the store-specific check; both are usage errors.
    char *bare[] = {bench, flagBare};
    EXPECT_EXIT(benchutil::benchStore(2, bare),
                ::testing::ExitedWithCode(2), "--store needs a");

    char flagEq[] = "--store=";
    char *eq[] = {bench, flagEq};
    EXPECT_EXIT(benchutil::benchStore(2, eq),
                ::testing::ExitedWithCode(2),
                "--store needs a directory path");
}

TEST(StoreBenchFlag, StoreValueParsesInBothSpellings)
{
    char bench[] = "bench";
    char flag[] = "--store";
    char dir[] = "/tmp/lsr-cli";
    char *split[] = {bench, flag, dir};
    EXPECT_EQ(benchutil::benchStore(3, split), "/tmp/lsr-cli");

    char joined[] = "--store=/tmp/lsr-cli2";
    char *eq[] = {bench, joined};
    EXPECT_EQ(benchutil::benchStore(2, eq), "/tmp/lsr-cli2");
}

// ---------------------------------------------------------------------------
// Concurrent-writer hardening: several local campaigns may be
// inserting into the same store directory that a maintenance gc is
// sweeping. The advisory lock (shared for writers,
// exclusive for gc) must keep every acknowledged insert durable —
// gc may evict by policy, but it must never tear an in-flight write
// or delete the fan-out directory out from under a rename.

TEST_F(StoreEnv, ConcurrentInsertersSurviveLiveGc)
{
    const fs::path dir = freshDir("store_gc_race");
    constexpr int kThreads = 4;
    constexpr int kPerThread = 32;

    std::atomic<bool> stop_gc{false};
    std::atomic<int> failed_inserts{0};

    // Each writer opens its own handle, the way separate processes
    // (concurrent CLI campaigns) would.
    std::vector<std::thread> writers;
    writers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        writers.emplace_back([&, t] {
            store::ResultStore local(dir.string());
            for (int i = 0; i < kPerThread; ++i) {
                const store::Fingerprint fp{
                    static_cast<std::uint64_t>(t) + 1,
                    static_cast<std::uint64_t>(i) + 1};
                if (!local.insert(fp, sampleResult(
                        static_cast<std::uint32_t>(t * kPerThread + i))))
                    failed_inserts.fetch_add(1);
            }
        });
    }
    std::thread gc([&] {
        // Generous budget: this gc only sweeps invalid records and
        // empty fan-out directories — exactly the tear window the
        // exclusive lock closes.
        while (!stop_gc.load())
            store::gcStore(dir.string(), 1ull << 40);
    });
    for (std::thread &w : writers)
        w.join();
    stop_gc.store(true);
    gc.join();

    EXPECT_EQ(failed_inserts.load(), 0);

    // Every acknowledged insert is durable and intact (full CRC pass).
    store::ResultStore reader(dir.string());
    for (int t = 0; t < kThreads; ++t) {
        for (int i = 0; i < kPerThread; ++i) {
            const store::Fingerprint fp{
                static_cast<std::uint64_t>(t) + 1,
                static_cast<std::uint64_t>(i) + 1};
            EXPECT_TRUE(reader.lookup(fp).has_value())
                << "lost record " << fp.hex();
        }
    }
    const store::VerifyReport verify = store::verifyStore(dir.string());
    EXPECT_EQ(verify.records,
              static_cast<std::size_t>(kThreads * kPerThread));
    EXPECT_EQ(verify.corrupt, 0u);

    // The advisory lock file is part of the layout now.
    EXPECT_TRUE(fs::exists(dir / ".lock"));
}

TEST_F(StoreEnv, SummaryJsonSharesOneSchemaAcrossCliAndServer)
{
    const fs::path dir = freshDir("store_stat_json");
    store::ResultStore writer(dir.string());
    ASSERT_TRUE(writer.insert(store::Fingerprint{1, 1}, sampleResult(1)));
    ASSERT_TRUE(writer.insert(store::Fingerprint{2, 2}, sampleResult(2)));

    const store::StoreSummary summary =
        store::summarizeStore(dir.string());
    EXPECT_EQ(summary.records, 2u);
    EXPECT_GT(summary.bytes, 0u);
    EXPECT_EQ(summary.invalid, 0u);

    // The `loopsim-store stat --json` shape: the directory summary
    // alone, no live counters.
    const std::string cli = store::storeSummaryJson(summary);
    EXPECT_NE(cli.find("\"dir\""), std::string::npos);
    EXPECT_NE(cli.find("\"records\": 2"), std::string::npos);
    EXPECT_NE(cli.find("\"bytes\""), std::string::npos);
    EXPECT_NE(cli.find("\"invalid\": 0"), std::string::npos);
    EXPECT_EQ(cli.find("\"stats\""), std::string::npos);

    // A header-invalid file is counted, not silently skipped.
    writeFile((dir / "00" / "junk.lsr").string(), "not a record");
    const store::StoreSummary dirty =
        store::summarizeStore(dir.string());
    EXPECT_EQ(dirty.records, 3u);
    EXPECT_EQ(dirty.invalid, 1u);
}
