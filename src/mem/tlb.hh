/**
 * @file
 * Fully-associative data TLB with LRU replacement. A dTLB miss in the
 * base machine is a memory trap recovered from the front of the pipe
 * (paper §3.1, turb3d discussion).
 *
 * Every memory op translates, so the lookup is indexed: a hash map
 * over the full (vpn, tid) key finds the entry's slot, and an
 * intrusive recency list names the LRU victim. Slot placement is
 * invisible (the TLB is fully associative), so hits, misses and
 * victims match a stamp-scanned LRU array exactly.
 */

#ifndef LOOPSIM_MEM_TLB_HH
#define LOOPSIM_MEM_TLB_HH

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "base/types.hh"

namespace loopsim
{

class Tlb
{
  public:
    /**
     * @param entries    number of TLB entries
     * @param page_bytes page size (power of two)
     */
    explicit Tlb(std::size_t entries = 128,
                 std::uint64_t page_bytes = 8192);

    /**
     * Translate @p addr for thread @p tid; fills the entry on a miss.
     * @return true on hit.
     */
    bool access(Addr addr, ThreadId tid);

    /** Tag-check only, no fill or LRU update. */
    bool probe(Addr addr, ThreadId tid) const;

    void reset();

    std::uint64_t hits() const { return hitCount; }
    std::uint64_t misses() const { return missCount; }
    std::uint64_t pageBytes() const { return pageSize; }
    std::size_t size() const { return entries.size(); }
    /** Valid entries (every slot once the TLB has filled). */
    std::size_t occupancy() const { return used; }

  private:
    static constexpr std::uint32_t none = UINT32_MAX;

    struct Entry
    {
        Addr vpn = 0;
        ThreadId tid = 0;
        std::uint32_t newer = none; ///< towards the MRU end
        std::uint32_t older = none; ///< towards the LRU end
    };

    struct Key
    {
        Addr vpn;
        ThreadId tid;
        bool operator==(const Key &) const = default;
    };

    struct KeyHash
    {
        std::size_t
        operator()(const Key &k) const noexcept
        {
            return std::hash<Addr>{}(k.vpn) ^
                   (static_cast<std::size_t>(k.tid) << 56);
        }
    };

    Addr vpnOf(Addr addr) const { return addr / pageSize; }
    void unlink(std::uint32_t slot);
    void pushMru(std::uint32_t slot);

    std::vector<Entry> entries;
    /** Slot holding each valid (vpn, tid). */
    std::unordered_map<Key, std::uint32_t, KeyHash> index;
    std::uint64_t pageSize;
    std::uint32_t used = 0; ///< slots [0, used) are valid
    std::uint32_t mru = none;
    std::uint32_t lru = none;
    std::uint64_t hitCount = 0;
    std::uint64_t missCount = 0;
};

} // namespace loopsim

#endif // LOOPSIM_MEM_TLB_HH
