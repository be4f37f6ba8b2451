#include "cpu/block_cache.hpp"

#include <algorithm>
#include <span>

#include "isa/decode.hpp"

namespace lzp::cpu {

bool ends_block(isa::Op op) noexcept {
  switch (op) {
    case isa::Op::kSyscall:
    case isa::Op::kSysenter:
    case isa::Op::kCallRax:
    case isa::Op::kCallRel:
    case isa::Op::kJmpRel:
    case isa::Op::kJmpReg:
    case isa::Op::kRet:
    case isa::Op::kHlt:
    case isa::Op::kTrap:
    case isa::Op::kJz:
    case isa::Op::kJnz:
    case isa::Op::kJlt:
    case isa::Op::kJgt:
    case isa::Op::kHostCall:
      return true;
    default:
      return false;
  }
}

const mem::Page* BlockCache::translate(const mem::AddressSpace& as,
                                       std::uint64_t page_base) noexcept {
  if (tlb_base_ == page_base && tlb_layout_gen_ == as.layout_gen()) {
    return tlb_page_;
  }
  const mem::Page* page = as.page_at(page_base);
  if (page != nullptr) {
    tlb_base_ = page_base;
    tlb_layout_gen_ = as.layout_gen();
    tlb_page_ = page;
  }
  return page;
}

bool BlockCache::build(const mem::AddressSpace& as, std::uint64_t rip,
                       const mem::Page& page, DecodedBlock* block) {
  (void)as;
  const std::uint64_t page_base = mem::page_floor(rip);
  block->start = rip;
  block->page_gen = page.gen;
  block->lead_nops = 0;
  block->insns.clear();

  std::uint64_t cursor = rip;
  while (block->size() < kMaxBlockInsns) {
    const std::uint64_t offset = cursor - page_base;
    if (offset >= mem::kPageSize) break;
    // Decode from the page's own bytes, clamped to the page end. The decoder
    // is total over a span: an encoding that would cross into the next page
    // sees a truncated span and fails, which is exactly the "leave it for the
    // per-instruction path" stop condition.
    const std::span<const std::uint8_t> window{
        page.bytes.data() + offset,
        std::min<std::size_t>(isa::kMaxInsnLength, mem::kPageSize - offset)};
    auto decoded = isa::decode(window);
    if (!decoded.is_ok()) break;
    const isa::Instruction& insn = decoded.value();
    if (insn.op == isa::Op::kNop && insn.length == 1 && block->insns.empty()) {
      ++block->lead_nops;
    } else {
      block->insns.push_back(insn);
    }
    cursor += insn.length;
    if (ends_block(insn.op)) break;
  }
  return block->size() != 0;
}

const DecodedBlock* BlockCache::lookup_or_build(const mem::AddressSpace& as,
                                                std::uint64_t rip) {
  if (as_id_ != as.asid()) {
    if (as_id_ != 0) ++stats_.flushes;
    flush();
    as_id_ = as.asid();
  }

  DecodedBlock& entry = entries_[index_of(rip)];
  const std::uint64_t page_base = mem::page_floor(rip);
  const mem::Page* page = translate(as, page_base);

  if (entry.start == rip) {
    if (page != nullptr && (page->prot & mem::kProtExec) != 0 &&
        page->gen == entry.page_gen) {
      ++stats_.hits;
      return &entry;
    }
    // The entry matched but its page vanished, lost exec, or was rewritten
    // since decode: the SMC path.
    entry.start = kNoAddr;
    ++stats_.invalidations;
    if (invalidation_listener_) invalidation_listener_(rip);
  }

  ++stats_.misses;
  if (page == nullptr || (page->prot & mem::kProtExec) == 0) {
    // Unfetchable first byte: the per-instruction path raises the fault.
    return nullptr;
  }
  if (!build(as, rip, *page, &entry)) {
    entry.start = kNoAddr;
    return nullptr;
  }
  ++stats_.blocks_built;
  return &entry;
}

void BlockCache::flush() noexcept {
  for (DecodedBlock& entry : entries_) {
    entry.start = kNoAddr;
    entry.insns.clear();
  }
  tlb_base_ = kNoAddr;
  tlb_page_ = nullptr;
  as_id_ = 0;
}

}  // namespace lzp::cpu
