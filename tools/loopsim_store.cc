/**
 * @file
 * loopsim-store: inspect and prune a persistent campaign result store
 * and its campaign journals.
 *
 *   loopsim-store list   [--store DIR]              one line per record
 *   loopsim-store stat   [--store DIR]              aggregate summary
 *   loopsim-store verify [--store DIR]              full CRC validation
 *   loopsim-store gc     [--store DIR] --max-bytes N   prune to budget
 *   loopsim-store journal list|stat|verify|prune [--journal DIR]
 *
 * The store directory comes from --store or the LOOPSIM_STORE
 * environment variable, the journal directory from --journal or
 * LOOPSIM_JOURNAL, matching the bench binaries. Exit status: 0 on
 * success (verify: everything fully valid), 1 when verify found
 * corrupt records / journals, 2 on usage errors.
 */

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "store/fingerprint.hh"
#include "store/journal.hh"
#include "store/result_store.hh"

using namespace loopsim;

namespace
{

int
usage(std::ostream &os, int exit_code)
{
    os << "usage: loopsim-store <command> [options]\n"
          "\n"
          "commands:\n"
          "  list                 one line per record: fingerprint, "
          "bytes, workload, pipe, IPC\n"
          "  stat [--json]        aggregate summary (records, bytes, "
          "schema versions); --json emits the shared cache-tier "
          "schema\n"
          "  verify               validate every record's CRC; exit 1 "
          "if any is corrupt\n"
          "  gc --max-bytes N     evict invalid then oldest records "
          "until <= N bytes\n"
          "  journal list         one line per campaign journal: plan, "
          "progress, verdicts\n"
          "  journal stat         aggregate journal summary\n"
          "  journal verify       validate every journal; exit 1 on "
          "corruption or torn tails\n"
          "  journal prune        remove completed and unreadable "
          "journals\n"
          "\n"
          "options:\n"
          "  --store DIR          store directory (default: "
          "$LOOPSIM_STORE)\n"
          "  --journal DIR        journal directory (default: "
          "$LOOPSIM_JOURNAL)\n";
    return exit_code;
}

/** Value of `--flag V` / `--flag=V`; exit 2 when the value is absent. */
std::string
flagValue(const std::vector<std::string> &args, const std::string &flag)
{
    const std::string prefix = flag + "=";
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i].rfind(prefix, 0) == 0)
            return args[i].substr(prefix.size());
        if (args[i] != flag)
            continue;
        if (i + 1 >= args.size()) {
            std::cerr << flag << " needs a value\n";
            std::exit(2);
        }
        return args[i + 1];
    }
    return "";
}

std::string
resolveDir(const std::vector<std::string> &args)
{
    std::string dir = flagValue(args, "--store");
    if (dir.empty())
        dir = store::storePath();
    if (dir.empty()) {
        std::cerr << "loopsim-store: no store directory (pass --store "
                     "DIR or set LOOPSIM_STORE)\n";
        std::exit(2);
    }
    return dir;
}

int
cmdList(const std::string &dir)
{
    const auto entries = store::scanStore(dir, /*decode=*/true);
    for (const store::StoreEntry &e : entries) {
        std::cout << e.fp.hex() << "  " << e.bytes << "B";
        if (!e.valid) {
            std::cout << "  CORRUPT  " << e.path << "\n";
            continue;
        }
        std::cout << "  " << e.result.workloadLabel << " ["
                  << e.result.pipeLabel << "]";
        if (e.result.failed)
            std::cout << "  FAILED";
        else
            std::cout << "  ipc=" << e.result.ipc << "  cycles="
                      << e.result.cycles;
        std::cout << "\n";
    }
    std::cout << entries.size() << " record(s) in " << dir << "\n";
    return 0;
}

/** Whether a bare flag (no value) is present. */
bool
hasFlag(const std::vector<std::string> &args, const std::string &flag)
{
    for (const std::string &arg : args) {
        if (arg == flag)
            return true;
    }
    return false;
}

int
cmdStat(const std::string &dir, bool json)
{
    if (json) {
        std::cout << store::storeSummaryJson(store::summarizeStore(dir));
        return 0;
    }
    const auto entries = store::scanStore(dir, /*decode=*/true);
    std::uint64_t bytes = 0;
    std::size_t corrupt = 0;
    std::size_t failed = 0;
    std::map<std::uint32_t, std::size_t> by_schema;
    for (const store::StoreEntry &e : entries) {
        bytes += e.bytes;
        ++by_schema[e.schema];
        if (!e.valid)
            ++corrupt;
        else if (e.result.failed)
            ++failed;
    }
    std::cout << "store:          " << dir << "\n"
              << "records:        " << entries.size() << "\n"
              << "bytes:          " << bytes << "\n"
              << "corrupt:        " << corrupt << "\n"
              << "failed-runs:    " << failed << "\n"
              << "schema-current: " << store::kSchemaVersion << "\n"
              << "model-epoch:    " << store::kModelEpoch << "\n";
    for (const auto &[schema, count] : by_schema)
        std::cout << "schema[" << schema << "]:      " << count << "\n";
    return 0;
}

int
cmdVerify(const std::string &dir)
{
    const store::VerifyReport report = store::verifyStore(dir);
    for (const std::string &path : report.corruptPaths)
        std::cout << "CORRUPT  " << path << "\n";
    std::cout << report.records << " record(s), " << report.corrupt
              << " corrupt\n";
    return report.corrupt == 0 ? 0 : 1;
}

int
cmdGc(const std::string &dir, const std::vector<std::string> &args)
{
    std::string text = flagValue(args, "--max-bytes");
    if (text.empty()) {
        std::cerr << "gc needs --max-bytes N\n";
        return 2;
    }
    char *end = nullptr;
    unsigned long long max_bytes = std::strtoull(text.c_str(), &end, 0);
    if (end == text.c_str() || *end != '\0' || text[0] == '-') {
        std::cerr << "invalid --max-bytes: \"" << text
                  << "\" (expected a non-negative byte count)\n";
        return 2;
    }
    const store::GcReport report = store::gcStore(dir, max_bytes);
    std::cout << "scanned " << report.scanned << " record(s), removed "
              << report.removed << ": " << report.bytesBefore << "B -> "
              << report.bytesAfter << "B (budget " << max_bytes
              << "B)\n";
    return 0;
}

std::string
resolveJournalDir(const std::vector<std::string> &args)
{
    std::string dir = flagValue(args, "--journal");
    if (dir.empty())
        dir = store::journalPath();
    if (dir.empty()) {
        std::cerr << "loopsim-store: no journal directory (pass "
                     "--journal DIR or set LOOPSIM_JOURNAL)\n";
        std::exit(2);
    }
    return dir;
}

void
printJournalLine(const store::JournalInfo &j)
{
    std::cout << j.planFp.hex() << "  " << j.bytes << "B  ";
    if (!j.headerOk) {
        std::cout << "UNREADABLE  " << j.path << "\n";
        return;
    }
    std::cout << j.entries << "/" << j.planCells << " cells";
    if (j.poison > 0)
        std::cout << " (" << j.poison << " poison)";
    if (j.complete())
        std::cout << "  complete";
    if (j.truncatedTail())
        std::cout << "  torn-tail";
    std::cout << "\n";
}

int
cmdJournalList(const std::string &dir)
{
    const auto journals = store::scanJournals(dir);
    for (const store::JournalInfo &j : journals)
        printJournalLine(j);
    std::cout << journals.size() << " journal(s) in " << dir << "\n";
    return 0;
}

int
cmdJournalStat(const std::string &dir)
{
    const auto journals = store::scanJournals(dir);
    std::uint64_t bytes = 0;
    std::size_t unreadable = 0;
    std::size_t complete = 0;
    std::size_t torn = 0;
    std::size_t entries = 0;
    std::size_t poison = 0;
    for (const store::JournalInfo &j : journals) {
        bytes += j.bytes;
        entries += j.entries;
        poison += j.poison;
        if (!j.headerOk)
            ++unreadable;
        if (j.complete())
            ++complete;
        if (j.headerOk && j.truncatedTail())
            ++torn;
    }
    std::cout << "journals:       " << dir << "\n"
              << "files:          " << journals.size() << "\n"
              << "bytes:          " << bytes << "\n"
              << "complete:       " << complete << "\n"
              << "unreadable:     " << unreadable << "\n"
              << "torn-tails:     " << torn << "\n"
              << "cells:          " << entries << "\n"
              << "poison-cells:   " << poison << "\n"
              << "schema-current: " << store::kSchemaVersion << "\n";
    return 0;
}

int
cmdJournalVerify(const std::string &dir)
{
    std::size_t bad = 0;
    const auto journals = store::scanJournals(dir);
    for (const store::JournalInfo &j : journals) {
        if (!j.headerOk) {
            std::cout << "UNREADABLE  " << j.path << "\n";
            ++bad;
        } else if (j.truncatedTail()) {
            std::cout << "TORN-TAIL   " << j.path << " ("
                      << (j.bytes - j.validBytes)
                      << "B past the valid prefix)\n";
            ++bad;
        }
    }
    std::cout << journals.size() << " journal(s), " << bad
              << " damaged\n";
    return bad == 0 ? 0 : 1;
}

int
cmdJournalPrune(const std::string &dir)
{
    const std::size_t before = store::scanJournals(dir).size();
    const std::size_t removed = store::pruneJournals(dir);
    std::cout << "scanned " << before << " journal(s), removed "
              << removed << " (completed or unreadable)\n";
    return 0;
}

int
cmdJournal(const std::vector<std::string> &args)
{
    if (args.empty()) {
        std::cerr << "journal needs a subcommand "
                     "(list|stat|verify|prune)\n";
        return 2;
    }
    const std::string sub = args[0];
    std::vector<std::string> rest(args.begin() + 1, args.end());
    const std::string dir = resolveJournalDir(rest);
    if (sub == "list")
        return cmdJournalList(dir);
    if (sub == "stat")
        return cmdJournalStat(dir);
    if (sub == "verify")
        return cmdJournalVerify(dir);
    if (sub == "prune")
        return cmdJournalPrune(dir);
    std::cerr << "loopsim-store: unknown journal subcommand \"" << sub
              << "\"\n";
    return 2;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(std::cerr, 2);
    const std::string command = argv[1];
    if (command == "--help" || command == "-h" || command == "help")
        return usage(std::cout, 0);

    std::vector<std::string> args(argv + 2, argv + argc);
    if (command == "journal")
        return cmdJournal(args);

    const std::string dir = resolveDir(args);

    if (command == "list")
        return cmdList(dir);
    if (command == "stat")
        return cmdStat(dir, hasFlag(args, "--json"));
    if (command == "verify")
        return cmdVerify(dir);
    if (command == "gc")
        return cmdGc(dir, args);

    std::cerr << "loopsim-store: unknown command \"" << command
              << "\"\n";
    return usage(std::cerr, 2);
}
