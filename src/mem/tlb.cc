#include "mem/tlb.hh"

#include <algorithm>

#include "base/intmath.hh"
#include "base/logging.hh"

namespace loopsim
{

Tlb::Tlb(std::size_t num_entries, std::uint64_t page_bytes)
    : entries(num_entries), pageSize(page_bytes)
{
    fatal_if(num_entries == 0, "TLB must have entries");
    fatal_if(num_entries >= none, "TLB entry count out of range");
    fatal_if(!isPowerOf2(page_bytes), "page size must be 2^n");
    index.reserve(num_entries);
}

void
Tlb::unlink(std::uint32_t slot)
{
    Entry &e = entries[slot];
    if (e.newer != none)
        entries[e.newer].older = e.older;
    else
        mru = e.older;
    if (e.older != none)
        entries[e.older].newer = e.newer;
    else
        lru = e.newer;
}

void
Tlb::pushMru(std::uint32_t slot)
{
    Entry &e = entries[slot];
    e.newer = none;
    e.older = mru;
    if (mru != none)
        entries[mru].newer = slot;
    else
        lru = slot;
    mru = slot;
}

bool
Tlb::access(Addr addr, ThreadId tid)
{
    const Key key{vpnOf(addr), tid};
    auto it = index.find(key);
    if (it != index.end()) {
        std::uint32_t slot = it->second;
        if (slot != mru) {
            unlink(slot);
            pushMru(slot);
        }
        ++hitCount;
        return true;
    }
    ++missCount;
    std::uint32_t slot;
    if (used < entries.size()) {
        slot = used++;
    } else {
        slot = lru;
        unlink(slot);
        index.erase(Key{entries[slot].vpn, entries[slot].tid});
    }
    entries[slot].vpn = key.vpn;
    entries[slot].tid = tid;
    index.emplace(key, slot);
    pushMru(slot);
    return false;
}

bool
Tlb::probe(Addr addr, ThreadId tid) const
{
    return index.count(Key{vpnOf(addr), tid}) != 0;
}

void
Tlb::reset()
{
    std::fill(entries.begin(), entries.end(), Entry{});
    index.clear();
    used = 0;
    mru = none;
    lru = none;
    hitCount = 0;
    missCount = 0;
}

} // namespace loopsim
