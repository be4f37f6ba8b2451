#include "cpu/execute.hpp"

#include <algorithm>
#include <cstring>

#include "cpu/block_cache.hpp"

// The interpreter below is threaded through computed goto (the GNU
// labels-as-values extension, which GCC and Clang both provide): every
// handler's tail jumps straight to the next instruction's handler.
#if !defined(__GNUC__)
#error "cpu/execute.cpp needs labels-as-values (computed goto): build with GCC or Clang"
#endif

namespace lzp::cpu {
namespace {

using isa::Gpr;
using isa::Instruction;
using isa::Op;

// Fetches up to kMaxInsnLength executable bytes at `addr` via one (or, at a
// page boundary, two) span-based page copies. Returns the number of bytes
// fetched (0 means the first byte itself is not executable).
std::size_t fetch_window(const mem::AddressSpace& mem, std::uint64_t addr,
                         std::uint8_t* out, mem::MemFault* first_fault) {
  return mem.fetch_window(addr, {out, isa::kMaxInsnLength}, first_fault);
}

// Fetch + decode at `rip`, consulting `cache` when given. Writes the decoded
// instruction to *insn and returns true; on failure returns false with
// *fetch_faulted / *fault describing a fetch fault (else: invalid opcode).
bool fetch_decode_cached(const mem::AddressSpace& mem, DecodeCache* cache,
                         std::uint64_t rip, Instruction* insn,
                         bool* fetch_faulted, mem::MemFault* fault) {
  *fetch_faulted = false;
  if (cache != nullptr) {
    if (const Instruction* hit = cache->lookup(mem, rip)) {
      *insn = *hit;
      return true;
    }
  }
  std::uint8_t window[isa::kMaxInsnLength];
  const std::size_t got = fetch_window(mem, rip, window, fault);
  if (got == 0) {
    *fetch_faulted = true;
    return false;
  }
  auto decoded = isa::decode({window, got});
  if (!decoded) return false;
  *insn = decoded.value();
  if (cache != nullptr) cache->insert(mem, rip, *insn);
  return true;
}

double bits_to_double(std::uint64_t bits) noexcept {
  double value = 0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

std::uint64_t double_to_bits(double value) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// Data access through the D-TLB with fallback to the checked accessors.
// The TLB only ever answers accesses the slow path would have satisfied
// (single page, prot allows, non-exec for writes), so fault behavior and
// fault accounting are identical with and without it.
std::optional<mem::MemFault> data_read(mem::AddressSpace& mem, DataTlb* tlb,
                                       std::uint64_t addr,
                                       std::span<std::uint8_t> out) noexcept {
  if (tlb != nullptr && tlb->read(mem, addr, out.data(), out.size())) {
    return std::nullopt;
  }
  return mem.read(addr, out);
}

std::optional<mem::MemFault> data_write(
    mem::AddressSpace& mem, DataTlb* tlb, std::uint64_t addr,
    std::span<const std::uint8_t> data) noexcept {
  if (tlb != nullptr && tlb->write(mem, addr, data.data(), data.size())) {
    return std::nullopt;
  }
  return mem.write(addr, data);
}

// Stack helpers, hoisted out of the per-step path (they used to be lambdas
// constructed on every step()).
std::optional<mem::MemFault> push64(CpuContext& ctx, mem::AddressSpace& mem,
                                    DataTlb* tlb, std::uint64_t value) noexcept {
  const std::uint64_t rsp = ctx.rsp() - 8;
  std::uint8_t bytes[8];
  std::memcpy(bytes, &value, 8);
  if (auto fault = data_write(mem, tlb, rsp, bytes)) return fault;
  ctx.set_rsp(rsp);
  return std::nullopt;
}

std::optional<mem::MemFault> pop64(CpuContext& ctx, mem::AddressSpace& mem,
                                   DataTlb* tlb, std::uint64_t& value) noexcept {
  std::uint8_t bytes[8];
  if (auto fault = data_read(mem, tlb, ctx.rsp(), bytes)) return fault;
  std::memcpy(&value, bytes, 8);
  ctx.set_rsp(ctx.rsp() + 8);
  return std::nullopt;
}

// The one interpreter. Executes the decoded instructions [first, end), whose
// first byte sits at ctx.rip, and adds what it did to `run`'s counts. Every
// non-terminator handler ends in a tail that advances rip and jumps straight
// to the next instruction's handler; the run stops at `end`, at a terminator,
// on a fault, or after a store that moved the address space's code
// generation. A fault or HLT/TRAP/HOSTCALL stops on its own instruction
// without retiring it; a SYSCALL/SYSENTER or control transfer retires.
// Returns the exit kind, which it also stores in run.kind.
ExecKind interpret(CpuContext& ctx, mem::AddressSpace& mem,
                   const Instruction* const first, const Instruction* const end,
                   DataTlb* tlb, BlockRun& run) {
  // Label addresses in exact Op declaration order (isa/insn.hpp); the
  // static_assert ties the table length to the enum so a newly added Op
  // cannot be silently dispatched off the end of the table.
  static const void* const kDispatch[] = {
      &&op_kNop,      &&op_kSyscall,  &&op_kSysenter, &&op_kCallRax,
      &&op_kCallRel,  &&op_kJmpRel,   &&op_kJmpReg,   &&op_kRet,
      &&op_kHlt,      &&op_kTrap,     &&op_kMovRI,    &&op_kMovRR,
      &&op_kLoad,     &&op_kStore,    &&op_kLoad8,    &&op_kStore8,
      &&op_kLoadGs,   &&op_kStoreGs,  &&op_kLoadGs8,  &&op_kStoreGs8,
      &&op_kPush,     &&op_kPop,      &&op_kAddRR,    &&op_kSubRR,
      &&op_kMulRR,    &&op_kDivRR,    &&op_kModRR,    &&op_kAddRI,
      &&op_kSubRI,    &&op_kCmpRI,    &&op_kCmpRR,    &&op_kJz,
      &&op_kJnz,      &&op_kJlt,      &&op_kJgt,      &&op_kXmovXI,
      &&op_kXmovXR,   &&op_kXmovRX,   &&op_kXstore,   &&op_kXload,
      &&op_kXzero,    &&op_kYmovHiYR, &&op_kYmovRYHi, &&op_kFldI,
      &&op_kFstpR,    &&op_kFaddP,    &&op_kRdGs,     &&op_kWrGs,
      &&op_kXorRR,    &&op_kMovRI32,  &&op_kHostCall,
  };
  static_assert(sizeof(kDispatch) / sizeof(kDispatch[0]) == isa::kNumOps);

  if (first == end) return ExecKind::kContinue;
  // A store can rewrite a *later* instruction of the same run (WX
  // self-modifying code), and the per-instruction reference path would
  // refetch and see the new bytes. Ending the run at the first store that
  // moves the code generation forces a relookup, which invalidates and
  // rebuilds the block from the freshly written page. Only handlers that
  // write memory can move it, so only their tails compare.
  const std::uint64_t code_gen_at_entry = mem.code_gen();
  const Instruction* insn = first;
  std::uint32_t nops = 0;
  ExecKind kind = ExecKind::kContinue;

#define LZP_DISPATCH goto* kDispatch[static_cast<std::size_t>(insn->op)]
// Tail of a handler that retired its instruction and falls through to the
// next one.
#define LZP_NEXT                   \
  ctx.rip += insn->length;         \
  if (++insn == end) goto ran_out; \
  LZP_DISPATCH
// The same tail for handlers that wrote memory.
#define LZP_NEXT_AFTER_STORE                                              \
  ctx.rip += insn->length;                                                \
  if (++insn == end || mem.code_gen() != code_gen_at_entry) goto ran_out; \
  LZP_DISPATCH
// Stops on this instruction without retiring it; insn_addr is its address.
#define LZP_STOP(exit_kind, addr) \
  do {                            \
    kind = (exit_kind);           \
    run.insn_addr = (addr);       \
    goto stopped;                 \
  } while (0)
// A memory fault leaves rip at the faulting instruction.
#define LZP_FAULT(mem_fault)                \
  do {                                      \
    run.fault = (mem_fault);                \
    LZP_STOP(ExecKind::kMemFault, ctx.rip); \
  } while (0)

  LZP_DISPATCH;

op_kNop:
  ++nops;
  LZP_NEXT;
op_kSyscall:
op_kSysenter:
  // The kernel sees the advanced rip, like x86; the syscall retires.
  kind = ExecKind::kSyscall;
  run.insn_addr = ctx.rip;
  run.last = insn;
  ctx.rip += insn->length;
  ++insn;
  goto ran_out;
op_kCallRax: {
  if (auto fault = push64(ctx, mem, tlb, ctx.rip + insn->length)) LZP_FAULT(*fault);
  ctx.rip = ctx.reg(Gpr::rax);
  goto transferred;
}
op_kCallRel: {
  const std::uint64_t next_rip = ctx.rip + insn->length;
  if (auto fault = push64(ctx, mem, tlb, next_rip)) LZP_FAULT(*fault);
  ctx.rip = next_rip + static_cast<std::uint64_t>(insn->imm);
  goto transferred;
}
op_kJmpRel:
  ctx.rip += insn->length + static_cast<std::uint64_t>(insn->imm);
  goto transferred;
op_kJmpReg:
  ctx.rip = ctx.reg(insn->r1);
  goto transferred;
op_kRet: {
  std::uint64_t target = 0;
  if (auto fault = pop64(ctx, mem, tlb, target)) LZP_FAULT(*fault);
  ctx.rip = target;
  goto transferred;
}
op_kHlt:
  ctx.rip += insn->length;
  LZP_STOP(ExecKind::kHlt, ctx.rip - insn->length);
op_kTrap:
  ctx.rip += insn->length;
  LZP_STOP(ExecKind::kTrap, ctx.rip - insn->length);
op_kMovRI:
  ctx.set_reg(insn->r1, static_cast<std::uint64_t>(insn->imm));
  LZP_NEXT;
op_kMovRR:
  ctx.set_reg(insn->r1, ctx.reg(insn->r2));
  LZP_NEXT;
op_kLoad: {
  const std::uint64_t addr = ctx.reg(insn->r2) + static_cast<std::uint64_t>(insn->imm);
  std::uint8_t bytes[8];
  if (auto fault = data_read(mem, tlb, addr, bytes)) LZP_FAULT(*fault);
  std::uint64_t value = 0;
  std::memcpy(&value, bytes, 8);
  ctx.set_reg(insn->r1, value);
  LZP_NEXT;
}
op_kStore: {
  const std::uint64_t addr = ctx.reg(insn->r2) + static_cast<std::uint64_t>(insn->imm);
  const std::uint64_t value = ctx.reg(insn->r1);
  std::uint8_t bytes[8];
  std::memcpy(bytes, &value, 8);
  if (auto fault = data_write(mem, tlb, addr, bytes)) LZP_FAULT(*fault);
  LZP_NEXT_AFTER_STORE;
}
op_kLoad8: {
  const std::uint64_t addr = ctx.reg(insn->r2) + static_cast<std::uint64_t>(insn->imm);
  std::uint8_t byte = 0;
  if (auto fault = data_read(mem, tlb, addr, {&byte, 1})) LZP_FAULT(*fault);
  ctx.set_reg(insn->r1, byte);
  LZP_NEXT;
}
op_kStore8: {
  const std::uint64_t addr = ctx.reg(insn->r2) + static_cast<std::uint64_t>(insn->imm);
  const std::uint8_t byte = static_cast<std::uint8_t>(ctx.reg(insn->r1));
  if (auto fault = data_write(mem, tlb, addr, {&byte, 1})) LZP_FAULT(*fault);
  LZP_NEXT_AFTER_STORE;
}
op_kLoadGs: {
  const std::uint64_t addr = ctx.gs_base + static_cast<std::uint64_t>(insn->imm);
  std::uint8_t bytes[8];
  if (auto fault = data_read(mem, tlb, addr, bytes)) LZP_FAULT(*fault);
  std::uint64_t value = 0;
  std::memcpy(&value, bytes, 8);
  ctx.set_reg(insn->r1, value);
  LZP_NEXT;
}
op_kStoreGs: {
  const std::uint64_t addr = ctx.gs_base + static_cast<std::uint64_t>(insn->imm);
  const std::uint64_t value = ctx.reg(insn->r1);
  std::uint8_t bytes[8];
  std::memcpy(bytes, &value, 8);
  if (auto fault = data_write(mem, tlb, addr, bytes)) LZP_FAULT(*fault);
  LZP_NEXT_AFTER_STORE;
}
op_kLoadGs8: {
  const std::uint64_t addr = ctx.gs_base + static_cast<std::uint64_t>(insn->imm);
  std::uint8_t byte = 0;
  if (auto fault = data_read(mem, tlb, addr, {&byte, 1})) LZP_FAULT(*fault);
  ctx.set_reg(insn->r1, byte);
  LZP_NEXT;
}
op_kStoreGs8: {
  const std::uint64_t addr = ctx.gs_base + static_cast<std::uint64_t>(insn->imm);
  const std::uint8_t byte = static_cast<std::uint8_t>(ctx.reg(insn->r1));
  if (auto fault = data_write(mem, tlb, addr, {&byte, 1})) LZP_FAULT(*fault);
  LZP_NEXT_AFTER_STORE;
}
op_kPush:
  if (auto fault = push64(ctx, mem, tlb, ctx.reg(insn->r1))) LZP_FAULT(*fault);
  LZP_NEXT_AFTER_STORE;
op_kPop: {
  std::uint64_t value = 0;
  if (auto fault = pop64(ctx, mem, tlb, value)) LZP_FAULT(*fault);
  ctx.set_reg(insn->r1, value);
  LZP_NEXT;
}
op_kAddRR:
  ctx.set_reg(insn->r1, ctx.reg(insn->r1) + ctx.reg(insn->r2));
  LZP_NEXT;
op_kSubRR:
  ctx.set_reg(insn->r1, ctx.reg(insn->r1) - ctx.reg(insn->r2));
  LZP_NEXT;
op_kMulRR:
  ctx.set_reg(insn->r1, ctx.reg(insn->r1) * ctx.reg(insn->r2));
  LZP_NEXT;
op_kDivRR:
op_kModRR: {
  const auto lhs = static_cast<std::int64_t>(ctx.reg(insn->r1));
  const auto rhs = static_cast<std::int64_t>(ctx.reg(insn->r2));
  // #DE: rip stays at the faulting instruction, like a real divide error
  // trap.
  if (rhs == 0) LZP_STOP(ExecKind::kDivideError, ctx.rip);
  const std::int64_t value = insn->op == Op::kDivRR ? lhs / rhs : lhs % rhs;
  ctx.set_reg(insn->r1, static_cast<std::uint64_t>(value));
  LZP_NEXT;
}
op_kAddRI:
  ctx.set_reg(insn->r1, ctx.reg(insn->r1) + static_cast<std::uint64_t>(insn->imm));
  LZP_NEXT;
op_kSubRI:
  ctx.set_reg(insn->r1, ctx.reg(insn->r1) - static_cast<std::uint64_t>(insn->imm));
  LZP_NEXT;
op_kCmpRI: {
  const auto lhs = static_cast<std::int64_t>(ctx.reg(insn->r1));
  const auto rhs = static_cast<std::int64_t>(insn->imm);
  ctx.flags = {lhs == rhs, lhs < rhs, lhs > rhs};
  LZP_NEXT;
}
op_kCmpRR: {
  const auto lhs = static_cast<std::int64_t>(ctx.reg(insn->r1));
  const auto rhs = static_cast<std::int64_t>(ctx.reg(insn->r2));
  ctx.flags = {lhs == rhs, lhs < rhs, lhs > rhs};
  LZP_NEXT;
}
op_kJz:
  ctx.rip += insn->length + (ctx.flags.zf ? static_cast<std::uint64_t>(insn->imm) : 0);
  goto transferred;
op_kJnz:
  ctx.rip += insn->length + (!ctx.flags.zf ? static_cast<std::uint64_t>(insn->imm) : 0);
  goto transferred;
op_kJlt:
  ctx.rip += insn->length + (ctx.flags.lt ? static_cast<std::uint64_t>(insn->imm) : 0);
  goto transferred;
op_kJgt:
  ctx.rip += insn->length + (ctx.flags.gt ? static_cast<std::uint64_t>(insn->imm) : 0);
  goto transferred;
op_kXmovXI:
  ctx.xstate.xmm[insn->xr1] = {static_cast<std::uint64_t>(insn->imm),
                               static_cast<std::uint64_t>(insn->imm)};
  LZP_NEXT;
op_kXmovXR: {
  const std::uint64_t value = ctx.reg(insn->r1);
  ctx.xstate.xmm[insn->xr1] = {value, value};
  LZP_NEXT;
}
op_kXmovRX:
  ctx.set_reg(insn->r1, ctx.xstate.xmm[insn->xr1][0]);
  LZP_NEXT;
op_kXstore: {
  const std::uint64_t addr = ctx.reg(insn->r1) + static_cast<std::uint64_t>(insn->imm);
  std::uint8_t bytes[16];
  std::memcpy(bytes, ctx.xstate.xmm[insn->xr1].data(), 16);
  if (auto fault = data_write(mem, tlb, addr, bytes)) LZP_FAULT(*fault);
  LZP_NEXT_AFTER_STORE;
}
op_kXload: {
  const std::uint64_t addr = ctx.reg(insn->r1) + static_cast<std::uint64_t>(insn->imm);
  std::uint8_t bytes[16];
  if (auto fault = data_read(mem, tlb, addr, bytes)) LZP_FAULT(*fault);
  std::memcpy(ctx.xstate.xmm[insn->xr1].data(), bytes, 16);
  LZP_NEXT;
}
op_kXzero:
  ctx.xstate.xmm[insn->xr1] = {0, 0};
  LZP_NEXT;
op_kYmovHiYR: {
  const std::uint64_t value = ctx.reg(insn->r1);
  ctx.xstate.ymm_hi[insn->xr1] = {value, value};
  LZP_NEXT;
}
op_kYmovRYHi:
  ctx.set_reg(insn->r1, ctx.xstate.ymm_hi[insn->xr1][0]);
  LZP_NEXT;
op_kFldI:
  ctx.xstate.x87_push(static_cast<std::uint64_t>(insn->imm));
  LZP_NEXT;
op_kFstpR:
  ctx.set_reg(insn->r1, ctx.xstate.x87_pop());
  LZP_NEXT;
op_kFaddP: {
  const double st0 = bits_to_double(ctx.xstate.x87_pop());
  const double st1 = bits_to_double(ctx.xstate.x87_pop());
  ctx.xstate.x87_push(double_to_bits(st0 + st1));
  LZP_NEXT;
}
op_kHostCall:
  // rip moves past the instruction; the kernel dispatches index imm.
  ctx.rip += insn->length;
  LZP_STOP(ExecKind::kHostCall, ctx.rip - insn->length);
op_kRdGs:
  ctx.set_reg(insn->r1, ctx.gs_base);
  LZP_NEXT;
op_kWrGs:
  ctx.gs_base = ctx.reg(insn->r1);
  LZP_NEXT;
op_kXorRR:
  ctx.set_reg(insn->r1, ctx.reg(insn->r1) ^ ctx.reg(insn->r2));
  LZP_NEXT;
op_kMovRI32:
  // Zero-extend: decode already stores the unsigned 32-bit value.
  ctx.set_reg(insn->r1, static_cast<std::uint64_t>(insn->imm));
  LZP_NEXT;

#undef LZP_FAULT
#undef LZP_STOP
#undef LZP_NEXT_AFTER_STORE
#undef LZP_NEXT
#undef LZP_DISPATCH

transferred:
  // A control transfer retired; blocks end at one, so this is the last
  // instruction of the run.
  ++insn;
ran_out: {
  const auto retired = static_cast<std::uint32_t>(insn - first);
  run.executed += retired;
  run.retired += retired;
  run.nops += nops;
  run.kind = kind;
  return kind;
}
stopped: {
  const auto retired = static_cast<std::uint32_t>(insn - first);
  run.executed += retired + 1;
  run.retired += retired;
  run.nops += nops;
  run.last = insn;
  run.kind = kind;
  return kind;
}
}

// step() and exec_decoded(): one instruction through interpret(). The
// result is built in one piece after the run, so it is stored straight into
// the caller's object, with no partly written copy reloaded on the way.
ExecResult exec_one(CpuContext& ctx, mem::AddressSpace& mem,
                    const Instruction& insn, DataTlb* tlb,
                    std::optional<Instruction> decoded) {
  const std::uint64_t insn_addr = ctx.rip;
  BlockRun run;
  const ExecKind kind = interpret(ctx, mem, &insn, &insn + 1, tlb, run);
  return {kind, kind == ExecKind::kMemFault ? run.fault : mem::MemFault{},
          insn_addr, decoded};
}

}  // namespace

Result<isa::Instruction> fetch_decode(const CpuContext& ctx,
                                      const mem::AddressSpace& mem,
                                      DecodeCache* cache) {
  Instruction insn;
  bool fetch_faulted = false;
  mem::MemFault fault;
  if (!fetch_decode_cached(mem, cache, ctx.rip, &insn, &fetch_faulted, &fault)) {
    if (fetch_faulted) {
      return make_error(StatusCode::kOutOfRange, fault.to_string());
    }
    return make_error(StatusCode::kInvalidArgument, "invalid opcode");
  }
  return insn;
}

ExecResult step(CpuContext& ctx, mem::AddressSpace& mem, DecodeCache* cache,
                DataTlb* tlb) {
  Instruction insn;
  bool fetch_faulted = false;
  mem::MemFault fetch_fault;
  if (!fetch_decode_cached(mem, cache, ctx.rip, &insn, &fetch_faulted,
                           &fetch_fault)) {
    ExecResult result;
    result.insn_addr = ctx.rip;
    if (fetch_faulted) {
      result.kind = ExecKind::kMemFault;
      result.fault = fetch_fault;
      return result;
    }
    // Either an unknown opcode or an instruction running off the end of the
    // mapped/executable region; both raise SIGILL-style outcomes (the latter
    // is a fetch fault in real hardware, but the distinction is immaterial
    // to every consumer in this project).
    result.kind = ExecKind::kInvalidOpcode;
    return result;
  }
  return exec_one(ctx, mem, insn, tlb, insn);
}

ExecResult exec_decoded(CpuContext& ctx, mem::AddressSpace& mem,
                        const Instruction& insn, DataTlb* tlb) {
  return exec_one(ctx, mem, insn, tlb, std::nullopt);
}

BlockRun run_block(CpuContext& ctx, mem::AddressSpace& mem,
                   const DecodedBlock& block, std::uint64_t budget,
                   DataTlb* tlb) {
  BlockRun run;
  // Leading-nop fold: the block's leading nops (the whole block in the
  // zpoline sled, the sled's last nops in the block where it meets the
  // trampoline) retire in O(1), as far as the budget reaches. Exact because a nop has no register,
  // memory, or fault effect beyond advancing rip by its one byte,
  // lookup_or_build just proved the page's bytes current, and each nop still
  // counts as one executed, retired nop, so a slice ends on the same
  // instruction as a per-instruction run.
  const auto folded =
      static_cast<std::uint32_t>(std::min<std::uint64_t>(block.lead_nops, budget));
  run.executed = folded;
  run.retired = folded;
  run.nops = folded;
  ctx.rip += folded;
  const isa::Instruction* first = block.insns.data();
  interpret(ctx, mem, first,
            first + std::min<std::uint64_t>(block.insns.size(), budget - folded),
            tlb, run);
  return run;
}

}  // namespace lzp::cpu
