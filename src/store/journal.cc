#include "store/journal.hh"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "base/knobs.hh"
#include "base/logging.hh"
#include "harness/experiment.hh"
#include "store/record.hh"

namespace fs = std::filesystem;

namespace loopsim::store
{

namespace
{

bool
readFile(const fs::path &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    if (in.bad())
        return false;
    out = buf.str();
    return true;
}

std::uint32_t
getU32(const std::string &in, std::size_t at)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(
                 static_cast<unsigned char>(in[at + i]))
             << (8 * i);
    return v;
}

std::uint64_t
getU64(const std::string &in, std::size_t at)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(in[at + i]))
             << (8 * i);
    return v;
}

void
putU32(std::string &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putU64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

bool
writeAll(int fd, const char *data, std::size_t n)
{
    while (n > 0) {
        ssize_t w = ::write(fd, data, n);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += w;
        n -= static_cast<std::size_t>(w);
    }
    return true;
}

struct ParsedHeader
{
    std::uint32_t schema = 0;
    Fingerprint planFp;
    std::uint64_t planCells = 0;
};

bool
parseHeader(const std::string &bytes, ParsedHeader &hdr)
{
    if (bytes.size() < kJournalHeaderBytes)
        return false;
    if (getU32(bytes, 0) != kJournalMagic)
        return false;
    hdr.schema = getU32(bytes, 4);
    hdr.planFp.hi = getU64(bytes, 8);
    hdr.planFp.lo = getU64(bytes, 16);
    hdr.planCells = getU64(bytes, 24);
    return true;
}

/**
 * Walk the entry region, decoding each self-validating record into
 * @p replay (latest duplicate wins). Returns the byte length of the
 * valid prefix (header included); anything past it is a torn tail.
 */
std::size_t
replayEntries(const std::string &bytes,
              std::map<Fingerprint, RunResult> &replay)
{
    std::size_t at = kJournalHeaderBytes;
    while (bytes.size() - at >= 4) {
        std::uint32_t len = getU32(bytes, at);
        if (bytes.size() - at - 4 < len)
            break;
        std::string record = bytes.substr(at + 4, len);
        Fingerprint fp;
        std::uint32_t schema = 0;
        RunResult result;
        if (!peekRecord(record, fp, schema) ||
            !decodeRecord(record, fp, result)) {
            break;
        }
        replay[fp] = std::move(result);
        at += 4 + len;
    }
    return at;
}

std::mutex journalPathMutex;
std::string explicitJournalPath;
bool explicitJournalPathSet = false;

} // anonymous namespace

CampaignJournal::CampaignJournal(const std::string &dir,
                                 const Fingerprint &plan_fp,
                                 std::uint64_t plan_cells)
{
    fatal_if(dir.empty(), "campaign journal needs a directory path");
    std::error_code ec;
    fs::create_directories(dir, ec);
    fatal_if(ec && !fs::is_directory(dir),
             "cannot create journal directory ", dir, ": ", ec.message());
    file = (fs::path(dir) / (plan_fp.hex() + ".lsj")).string();

    // Replay whatever a previous campaign left, then truncate the torn
    // tail so fresh appends never land after garbled framing.
    std::size_t keep = 0;
    std::string bytes;
    if (readFile(file, bytes)) {
        ParsedHeader hdr;
        if (parseHeader(bytes, hdr) && hdr.schema == kSchemaVersion &&
            hdr.planFp == plan_fp && hdr.planCells == plan_cells) {
            keep = replayEntries(bytes, replay);
        } else if (!bytes.empty()) {
            warn("journal ", file,
                 " does not match this plan; starting it over");
        }
    }

    fd = ::open(file.c_str(), O_WRONLY | O_CREAT, 0644);
    if (fd < 0) {
        warn("cannot open journal ", file, ": ", std::strerror(errno),
             " (campaign will run un-resumable)");
        replay.clear();
        return;
    }
    if (::ftruncate(fd, static_cast<off_t>(keep)) != 0 ||
        ::lseek(fd, 0, SEEK_END) < 0) {
        warn("cannot position journal ", file, ": ",
             std::strerror(errno), " (campaign will run un-resumable)");
        ::close(fd);
        fd = -1;
        replay.clear();
        return;
    }
    if (keep == 0) {
        std::string hdr;
        hdr.reserve(kJournalHeaderBytes);
        putU32(hdr, kJournalMagic);
        putU32(hdr, kSchemaVersion);
        putU64(hdr, plan_fp.hi);
        putU64(hdr, plan_fp.lo);
        putU64(hdr, plan_cells);
        if (!writeAll(fd, hdr.data(), hdr.size())) {
            warn("cannot write journal header ", file, ": ",
                 std::strerror(errno));
            ::close(fd);
            fd = -1;
            return;
        }
        ::fsync(fd);
    }
}

CampaignJournal::~CampaignJournal()
{
    if (fd >= 0)
        ::close(fd);
}

void
CampaignJournal::append(const Fingerprint &fp, const RunResult &result)
{
    if (fd < 0)
        return;
    // The record codec never serializes loopEvents/tickProfile, so the
    // journal naturally stores only replayable measurement state.
    std::string record = encodeRecord(fp, result);
    std::string entry;
    entry.reserve(4 + record.size());
    putU32(entry, static_cast<std::uint32_t>(record.size()));
    entry.append(record);

    std::lock_guard<std::mutex> lock(mutex);
    if (!writeAll(fd, entry.data(), entry.size())) {
        if (!writeFailed) {
            warn("journal append to ", file, " failed: ",
                 std::strerror(errno),
                 " (resume coverage stops here; results unaffected)");
        }
        writeFailed = true;
        return;
    }
    // The write() above already survives a SIGKILL of this process
    // (the entry is in the page cache). fsync per cell guards against
    // an OS crash or power loss: a cell is milliseconds to minutes of
    // simulation, the sync is microseconds.
    ::fsync(fd);
}

void
setJournalPath(const std::string &dir)
{
    std::lock_guard<std::mutex> lock(journalPathMutex);
    explicitJournalPath = dir;
    explicitJournalPathSet = true;
}

std::string
journalPath()
{
    {
        std::lock_guard<std::mutex> lock(journalPathMutex);
        if (explicitJournalPathSet)
            return explicitJournalPath;
    }
    return knobs::env().journal;
}

bool
journalConfigured()
{
    return !journalPath().empty();
}

std::vector<JournalInfo>
scanJournals(const std::string &dir)
{
    std::vector<JournalInfo> out;
    std::error_code ec;
    if (!fs::is_directory(dir, ec))
        return out;

    for (fs::directory_iterator
             it(dir, fs::directory_options::skip_permission_denied, ec),
         end;
         it != end; it.increment(ec)) {
        if (ec)
            break;
        if (!it->is_regular_file(ec) || it->path().extension() != ".lsj")
            continue;

        JournalInfo info;
        info.path = it->path().string();
        info.bytes = static_cast<std::uint64_t>(it->file_size(ec));
        auto mtime = fs::last_write_time(it->path(), ec);
        if (!ec) {
            info.mtimeSeconds =
                std::chrono::duration_cast<std::chrono::seconds>(
                    mtime.time_since_epoch())
                    .count();
        }

        bool named_ok =
            Fingerprint::parse(it->path().stem().string(), info.planFp);

        std::string bytes;
        if (readFile(it->path(), bytes)) {
            ParsedHeader hdr;
            if (parseHeader(bytes, hdr)) {
                info.schema = hdr.schema;
                info.planCells = hdr.planCells;
                info.headerOk = named_ok &&
                                hdr.schema == kSchemaVersion &&
                                hdr.planFp == info.planFp;
            }
            if (info.headerOk) {
                std::map<Fingerprint, RunResult> replay;
                info.validBytes = replayEntries(bytes, replay);
                info.entries = replay.size();
                for (const auto &[fp, result] : replay) {
                    if (result.failed)
                        ++info.poison;
                }
            }
        }
        out.push_back(std::move(info));
    }

    std::sort(out.begin(), out.end(),
              [](const JournalInfo &a, const JournalInfo &b) {
                  return a.planFp < b.planFp;
              });
    return out;
}

std::size_t
pruneJournals(const std::string &dir)
{
    std::size_t removed = 0;
    std::error_code ec;
    for (const JournalInfo &info : scanJournals(dir)) {
        if (info.headerOk && !info.complete())
            continue; // resumable in-progress journal: keep
        if (fs::remove(info.path, ec) && !ec)
            ++removed;
    }
    return removed;
}

} // namespace loopsim::store
