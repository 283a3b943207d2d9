#include "core/register_file.hh"

#include <algorithm>
#include <sstream>

#include "base/debug.hh"
#include "base/knobs.hh"
#include "base/logging.hh"

namespace loopsim
{

const char *
operandSourceName(OperandSource src)
{
    switch (src) {
      case OperandSource::None: return "none";
      case OperandSource::PreRead: return "preread";
      case OperandSource::Forward: return "forward";
      case OperandSource::Crc: return "crc";
      case OperandSource::RegFile: return "regfile";
      case OperandSource::Payload: return "payload";
      case OperandSource::Miss: return "miss";
      default: panic("unknown operand source");
    }
}

PhysRegFile::PhysRegFile(unsigned num_regs)
    : numRegs(num_regs), issueReadyCycles(num_regs, invalidCycle),
      actualReadyCycles(num_regs, invalidCycle),
      writebackCycles(num_regs, invalidCycle), liveFlags(num_regs, 0),
      producers(num_regs),
      tracedReg(knobs::env().traceReg)
{
    fatal_if(num_regs == 0 || num_regs >= invalidPhysReg,
             "physical register count out of range");
    freeList.reserve(num_regs);
    for (unsigned i = num_regs; i-- > 0;)
        freeList.push_back(static_cast<PhysReg>(i));
}

void
PhysRegFile::emitTrace(PhysReg reg, const char *what,
                       std::uint64_t value) const
{
    // Through debug::emit: one write per line, so traces stay
    // unscrambled under parallel campaigns.
    std::ostringstream os;
    os << "[preg " << reg << "] " << what << " " << value;
    debug::emit(debug::Flag::Reg, os.str());
}

void
PhysRegFile::checkRange(PhysReg reg) const
{
    panic_if(reg >= numRegs, "physical register out of range");
}

PhysReg
PhysRegFile::alloc(InstRef producer)
{
    panic_if(freeList.empty(), "allocating from an empty free list");
    PhysReg reg = freeList.back();
    freeList.pop_back();
    panic_if(liveFlags[reg], "allocating a live register");
    liveFlags[reg] = 1;
    issueReadyCycles[reg] = invalidCycle;
    actualReadyCycles[reg] = invalidCycle;
    writebackCycles[reg] = invalidCycle;
    producers[reg] = producer;
    traceReg(reg, "alloc producerIdx", producer.idx);
    return reg;
}

PhysReg
PhysRegFile::allocArch()
{
    PhysReg reg = alloc(InstRef{});
    // Architectural state exists "since forever".
    issueReadyCycles[reg] = 0;
    actualReadyCycles[reg] = 0;
    writebackCycles[reg] = 0;
    return reg;
}

void
PhysRegFile::free(PhysReg reg)
{
    checkRange(reg);
    panic_if(!liveFlags[reg], "freeing a register that is not live");
    traceReg(reg, "free", 0);
    liveFlags[reg] = 0;
    freeList.push_back(reg);
}

void
PhysRegFile::setIssueReady(PhysReg reg, Cycle cycle)
{
    checkRange(reg);
    traceReg(reg, "setIssueReady", cycle);
    issueReadyCycles[reg] = cycle;
}

void
PhysRegFile::clearIssueReady(PhysReg reg)
{
    checkRange(reg);
    traceReg(reg, "clearIssueReady", 0);
    issueReadyCycles[reg] = invalidCycle;
}

void
PhysRegFile::setActualReady(PhysReg reg, Cycle cycle)
{
    checkRange(reg);
    traceReg(reg, "setActualReady", cycle);
    actualReadyCycles[reg] = cycle;
}

void
PhysRegFile::clearActualReady(PhysReg reg)
{
    checkRange(reg);
    traceReg(reg, "clearActualReady", 0);
    actualReadyCycles[reg] = invalidCycle;
}

Cycle
PhysRegFile::actualReadyAt(PhysReg reg) const
{
    checkRange(reg);
    return actualReadyCycles[reg];
}

bool
PhysRegFile::actualReady(PhysReg reg, Cycle now) const
{
    checkRange(reg);
    return actualReadyCycles[reg] <= now;
}

void
PhysRegFile::setWriteback(PhysReg reg, Cycle cycle)
{
    checkRange(reg);
    writebackCycles[reg] = cycle;
}

Cycle
PhysRegFile::writebackAt(PhysReg reg) const
{
    checkRange(reg);
    return writebackCycles[reg];
}

bool
PhysRegFile::writtenBack(PhysReg reg, Cycle now) const
{
    checkRange(reg);
    return writebackCycles[reg] <= now;
}

InstRef
PhysRegFile::producer(PhysReg reg) const
{
    checkRange(reg);
    return producers[reg];
}

bool
PhysRegFile::live(PhysReg reg) const
{
    checkRange(reg);
    return liveFlags[reg] != 0;
}

void
PhysRegFile::reset()
{
    std::fill(issueReadyCycles.begin(), issueReadyCycles.end(),
              invalidCycle);
    std::fill(actualReadyCycles.begin(), actualReadyCycles.end(),
              invalidCycle);
    std::fill(writebackCycles.begin(), writebackCycles.end(),
              invalidCycle);
    std::fill(liveFlags.begin(), liveFlags.end(), 0);
    std::fill(producers.begin(), producers.end(), InstRef{});
    freeList.clear();
    for (unsigned i = numRegs; i-- > 0;)
        freeList.push_back(static_cast<PhysReg>(i));
}

} // namespace loopsim
