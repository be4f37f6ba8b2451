// Superblock cache + block executor for the simulator hot loop.
//
// The decode cache (PR 1) removed per-instruction fetch/decode cost; the
// kernel's step loop still pays per-instruction dispatch, accounting, and
// policy checks. A DecodedBlock is a straight-line run of pre-decoded
// instructions that run_block() executes back to back, so Machine::run_slice
// can hoist all of that to block boundaries (see machine.cpp).
//
// Block construction stops at (the terminator is INCLUDED in the block):
//   * any control transfer (call/jmp/ret/conditional branches),
//   * SYSCALL / SYSENTER, HOSTCALL, HLT, TRAP — anything the kernel layer
//     must see,
//   * the page boundary (an instruction whose encoding would cross into the
//     next page is left for the per-instruction path, so every block's bytes
//     live on exactly ONE page),
//   * kMaxBlockInsns.
//
// Keeping a block within one page makes validation a single generation
// compare: a block is valid iff the asid matches, the start rip matches, and
// the backing page is still executable at the generation the block was
// decoded under — precisely the DecodeCache invalidation contract from PR 1,
// so zpoline's self-modifying rewrite idiom invalidates blocks exactly as it
// invalidates single decodes (writes to exec pages, exec-bit mprotect flips,
// unmap, fork/execve asid changes all bump the relevant generation).
//
// run_block() is the simulator's one interpreter (cpu/execute.cpp): a
// computed-goto loop over the block's instructions in which each handler's
// tail jumps straight to the next instruction's handler. It maintains ctx.rip
// as it goes, so a mid-block fault leaves the context exactly as the
// per-instruction path would — rip at the faulting instruction, no partial
// writes, earlier instructions fully retired — and the returned
// executed/retired/nop counts cover only what actually completed, so the
// kernel's batched accounting is bit-exact against per-step accounting. The
// per-instruction path (cpu::step / exec_decoded) runs the same handlers one
// instruction at a time.
//
// The index is a multiplicative (Fibonacci) hash of rip. The VA-0 nop sled's
// block starts (0..0x1ff) and application text at 0x400000 + the same offsets
// therefore land in different slots instead of evicting each other.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "cpu/context.hpp"
#include "cpu/data_tlb.hpp"
#include "cpu/execute.hpp"
#include "isa/insn.hpp"
#include "memory/address_space.hpp"

namespace lzp::cpu {

struct BlockCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;         // includes invalidations and failed builds
  std::uint64_t invalidations = 0;  // entry matched rip but its gen was stale
  std::uint64_t flushes = 0;        // whole-cache flushes (execve / AS swap)
  std::uint64_t blocks_built = 0;

  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

// A decoded straight-line run. All encodings live on the page of `start`.
struct DecodedBlock {
  std::uint64_t start = 0;
  std::uint64_t page_gen = 0;  // generation the block was decoded under
  // The block's leading run of nops, kept as a count rather than as
  // instructions: a nop is one byte (isa/insn.hpp), so the count is also
  // their length in bytes. run_block retires them in O(1). In the zpoline
  // sled they are the whole block.
  std::uint32_t lead_nops = 0;
  // The instructions after the leading nops.
  std::vector<isa::Instruction> insns;

  // Instructions in the block, leading nops included.
  [[nodiscard]] std::size_t size() const noexcept {
    return lead_nops + insns.size();
  }
};

// True for every opcode that must end a block (control transfers plus the
// kernel-visible instructions).
[[nodiscard]] bool ends_block(isa::Op op) noexcept;

class BlockCache {
 public:
  static constexpr std::size_t kNumEntries = 1024;  // power of two
  static constexpr std::size_t kMaxBlockInsns = 32;

  BlockCache() : entries_(kNumEntries) {}

  // Returns a valid block starting at `rip`, building (and caching) one if
  // needed. nullptr when no block can be built: the first instruction
  // crosses a page boundary, fails to decode, or the page is not executable
  // — the caller falls back to the per-instruction path, which owns raising
  // the architectural fault. The pointer is valid until the next
  // lookup_or_build()/flush().
  [[nodiscard]] const DecodedBlock* lookup_or_build(const mem::AddressSpace& as,
                                                    std::uint64_t rip);

  void flush() noexcept;

  [[nodiscard]] const BlockCacheStats& stats() const noexcept { return stats_; }

  // Fires when an entry matched rip but went stale (page vanished, lost
  // exec, or its generation moved) — the SMC signature, same contract as
  // DecodeCache::set_invalidation_listener.
  void set_invalidation_listener(std::function<void(std::uint64_t rip)> fn) {
    invalidation_listener_ = std::move(fn);
  }

 private:
  static constexpr std::uint64_t kNoAddr = ~0ULL;

  static constexpr unsigned kIndexBits = 10;
  static_assert(kNumEntries == std::size_t{1} << kIndexBits);

  // Fibonacci hashing: the top kIndexBits of rip * 2^64/phi. Nearby rips
  // spread over the whole table, and no two regions whose addresses differ
  // only in high bits alias slot for slot.
  [[nodiscard]] static std::size_t index_of(std::uint64_t rip) noexcept {
    return static_cast<std::size_t>((rip * 0x9E3779B97F4A7C15ULL) >>
                                    (64 - kIndexBits));
  }

  // One-entry page-translation TLB (same pattern as DecodeCache).
  [[nodiscard]] const mem::Page* translate(const mem::AddressSpace& as,
                                           std::uint64_t page_base) noexcept;

  // Decodes a fresh block at `rip` into `block`. Returns false when not even
  // one instruction fits (see lookup_or_build).
  bool build(const mem::AddressSpace& as, std::uint64_t rip,
             const mem::Page& page, DecodedBlock* block);

  std::vector<DecodedBlock> entries_;  // start == kNoAddr marks empty
  std::uint64_t as_id_ = 0;

  std::uint64_t tlb_base_ = kNoAddr;
  std::uint64_t tlb_layout_gen_ = 0;
  const mem::Page* tlb_page_ = nullptr;

  BlockCacheStats stats_;
  std::function<void(std::uint64_t rip)> invalidation_listener_;
};

// Outcome of one run_block() call.
struct BlockRun {
  // kContinue: ran to the end of the block (or out of budget, or stopped
  // after a store that rewrote code) with every executed instruction
  // retired; ctx.rip points at the next instruction. Any other kind
  // reproduces exactly what step() would have returned for the instruction
  // at `insn_addr`.
  ExecKind kind = ExecKind::kContinue;
  std::uint32_t executed = 0;  // instructions attempted — machine steps used
  std::uint32_t retired = 0;   // instructions retired (kContinue/kSyscall)
  std::uint32_t nops = 0;      // of `retired`, how many were kNop
  mem::MemFault fault{};       // valid when kind == kMemFault
  // The ending instruction and its address; set when kind != kContinue.
  std::uint64_t insn_addr = 0;
  const isa::Instruction* last = nullptr;
};

// Executes up to `budget` instructions of `block` from its first instruction
// (ctx.rip must sit on block.start). The budget is in *executed*
// instructions — exactly the machine steps a per-instruction run would use,
// so slice boundaries land on identical points with the engine on or off.
// Stops early at the first non-kContinue outcome; the kSyscall terminator
// counts as retired (matching step_once's accounting), while
// kHostCall/kHlt/kTrap and faults execute without retiring. The block's
// leading nops retire in O(1), up to the budget. Defined in cpu/execute.cpp
// next to the handlers it threads through.
BlockRun run_block(CpuContext& ctx, mem::AddressSpace& mem,
                   const DecodedBlock& block, std::uint64_t budget,
                   DataTlb* tlb = nullptr);

}  // namespace lzp::cpu
