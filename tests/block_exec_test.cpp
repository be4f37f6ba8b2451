// Superblock execution engine (cpu/block_cache + Machine batch dispatch):
//   * block construction, budget clamping, and SMC invalidation at the cpu
//     layer, and a block-cache index under which the VA-0 sled and text at
//     0x400000 do not evict each other,
//   * per-opcode equivalence: every opcode and its faulting variants through
//     cpu::step() and cpu::run_block() at budgets 0, 1, 2 and the whole
//     block, with and without a leading nop,
//   * the retired-only total_insns() contract (signal kills and host-fn
//     dispatch advance total_steps() but never total_insns()),
//   * differential properties: engine on vs off must agree bit-for-bit on
//     final architectural state, cycles, retired counts, and step counts —
//     for random programs, interposed loops, and the multi-task webserver,
//   * SMC mid-run and a 4-CPU shootdown during batched execution,
//   * the leading-nop fold: slice by slice through zpoline's and
//     lazypoline's sled, including budgets that end inside a nop block,
//   * record/replay neutrality: the Recorder keeps the engine on, traces
//     recorded with the engine on and off are identical, and replay round
//     trips survive an external kill,
//   * fallback accounting: every reference-path step is counted under the
//     reason the engine declined it.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "apps/minilibc.hpp"
#include "apps/webserver.hpp"
#include "base/rng.hpp"
#include "core/lazypoline.hpp"
#include "cpu/block_cache.hpp"
#include "isa/assemble.hpp"
#include "isa/decode.hpp"
#include "kernel/machine.hpp"
#include "kernel/syscalls.hpp"
#include "mechanisms/ptrace_tool.hpp"
#include "mechanisms/sud_tool.hpp"
#include "profile/profiler.hpp"
#include "replay/recorder.hpp"
#include "replay/replayer.hpp"
#include "sim_test_util.hpp"
#include "zpoline/zpoline.hpp"
#ifndef LZP_TRACE_DISABLED
#include "trace/export.hpp"
#include "trace/tracer.hpp"
#endif

namespace lzp {
namespace {

using isa::Assembler;
using isa::Gpr;

// --- cpu-layer unit tests ----------------------------------------------------

constexpr std::uint64_t kCodeBase = 0x40'0000;

struct BlockFixture {
  mem::AddressSpace as;
  cpu::CpuContext ctx;
  cpu::BlockCache cache;

  explicit BlockFixture(Assembler& assembler) {
    auto code = assembler.finish().value();
    EXPECT_TRUE(as.map(kCodeBase, mem::page_ceil(code.size()),
                       mem::kProtRead | mem::kProtExec, true)
                    .is_ok());
    EXPECT_TRUE(as.write_force(kCodeBase, code).is_ok());
    ctx.rip = kCodeBase;
  }
};

TEST(BlockCacheTest, BuildsThroughTerminatorAndHitsOnReuse) {
  Assembler a;
  a.mov(Gpr::rax, 1);
  a.add(Gpr::rax, 2);
  a.nop();
  a.syscall_();
  a.mov(Gpr::rbx, 3);  // next block; must not be included
  BlockFixture f(a);

  const cpu::DecodedBlock* block = f.cache.lookup_or_build(f.as, kCodeBase);
  ASSERT_NE(block, nullptr);
  EXPECT_EQ(block->insns.size(), 4u);  // terminator (SYSCALL) included
  EXPECT_EQ(block->lead_nops, 0u);  // the nop is not leading
  EXPECT_EQ(block->insns.back().op, isa::Op::kSyscall);
  EXPECT_EQ(f.cache.stats().misses, 1u);

  EXPECT_EQ(f.cache.lookup_or_build(f.as, kCodeBase), block);
  EXPECT_EQ(f.cache.stats().hits, 1u);
  EXPECT_EQ(f.cache.stats().blocks_built, 1u);
}

TEST(BlockCacheTest, RunBlockBudgetBoundsExecutedInstructions) {
  Assembler a;
  for (int i = 0; i < 6; ++i) a.add(Gpr::rax, 1);
  a.syscall_();
  BlockFixture f(a);

  const cpu::DecodedBlock* block = f.cache.lookup_or_build(f.as, kCodeBase);
  ASSERT_NE(block, nullptr);
  ASSERT_EQ(block->insns.size(), 7u);

  cpu::BlockRun run = cpu::run_block(f.ctx, f.as, *block, /*budget=*/3);
  EXPECT_EQ(run.executed, 3u);
  EXPECT_EQ(run.retired, 3u);
  EXPECT_EQ(run.kind, cpu::ExecKind::kContinue);
  EXPECT_EQ(f.ctx.reg(Gpr::rax), 3u);

  // Resume mid-block via a fresh lookup at the advanced rip.
  const cpu::DecodedBlock* rest = f.cache.lookup_or_build(f.as, f.ctx.rip);
  ASSERT_NE(rest, nullptr);
  run = cpu::run_block(f.ctx, f.as, *rest, /*budget=*/64);
  EXPECT_EQ(run.kind, cpu::ExecKind::kSyscall);
  EXPECT_EQ(run.executed, 4u);  // 3 adds + the SYSCALL step
  EXPECT_EQ(run.retired, 4u);   // the SYSCALL terminator retires
  EXPECT_EQ(f.ctx.reg(Gpr::rax), 6u);
}

TEST(BlockCacheTest, SelfModifyingWriteInvalidatesWarmBlock) {
  Assembler a;
  a.syscall_();
  a.nop();
  BlockFixture f(a);

  ASSERT_NE(f.cache.lookup_or_build(f.as, kCodeBase), nullptr);
  ASSERT_NE(f.cache.lookup_or_build(f.as, kCodeBase), nullptr);
  EXPECT_EQ(f.cache.stats().hits, 1u);

  std::uint64_t invalidated_rip = 0;
  f.cache.set_invalidation_listener(
      [&invalidated_rip](std::uint64_t rip) { invalidated_rip = rip; });

  // Runtime-style privileged rewrite of the executing bytes (syscall ->
  // call rax): the page generation moves, so the warm block must die.
  const std::uint8_t call_rax[2] = {isa::kByteFF, isa::kByteCallRax2};
  ASSERT_TRUE(f.as.write_force(kCodeBase, call_rax).is_ok());

  const cpu::DecodedBlock* rebuilt = f.cache.lookup_or_build(f.as, kCodeBase);
  ASSERT_NE(rebuilt, nullptr);
  EXPECT_EQ(rebuilt->insns[0].op, isa::Op::kCallRax);
  EXPECT_EQ(f.cache.stats().invalidations, 1u);
  EXPECT_EQ(invalidated_rip, kCodeBase);
}

TEST(BlockCacheTest, PageCrossingHeadFallsBackToNullptr) {
  // An instruction whose encoding straddles a page boundary is left to the
  // per-instruction path: the builder decodes from a span clamped to the
  // page end, so the truncated head fails and no block exists there.
  Assembler a;
  a.mov(Gpr::rax, 0x1122'3344'5566'7788ULL);
  const auto bytes = a.finish().value();
  ASSERT_GT(bytes.size(), 2u);
  ASSERT_FALSE(isa::decode({bytes.data(), 2}).is_ok());

  mem::AddressSpace as;
  ASSERT_TRUE(as.map(kCodeBase, 2 * mem::kPageSize,
                     mem::kProtRead | mem::kProtExec, true)
                  .is_ok());
  const std::uint64_t head = kCodeBase + mem::kPageSize - 2;
  ASSERT_TRUE(as.write_force(head, bytes).is_ok());

  cpu::BlockCache cache;
  EXPECT_EQ(cache.lookup_or_build(as, head), nullptr);
  // Fully on-page placement of the same bytes builds fine.
  ASSERT_TRUE(as.write_force(kCodeBase, bytes).is_ok());
  EXPECT_NE(cache.lookup_or_build(as, kCodeBase), nullptr);
}

TEST(BlockCacheTest, SledAndTextDoNotEvictEachOther) {
  // zpoline's VA-0 nop sled starts blocks at 0..0x1ff, and application text
  // sits at 0x400000 plus the same offsets. An index that drops the high
  // bits sends each pair to one slot, so they evict each other on every
  // sled pass. Look both up, then both again: the second pair must hit.
  constexpr std::uint64_t kSledStarts = 0x200;
  mem::AddressSpace as;
  const std::vector<std::uint8_t> nops(mem::kPageSize, isa::kByteNop);
  for (const std::uint64_t base : {std::uint64_t{0}, kCodeBase}) {
    ASSERT_TRUE(as.map(base, mem::kPageSize, mem::kProtRead | mem::kProtExec,
                       true)
                    .is_ok());
    ASSERT_TRUE(as.write_force(base, nops).is_ok());
  }

  cpu::BlockCache cache;
  for (std::uint64_t offset = 0; offset < kSledStarts; ++offset) {
    ASSERT_NE(cache.lookup_or_build(as, offset), nullptr);
    ASSERT_NE(cache.lookup_or_build(as, kCodeBase + offset), nullptr);
    const std::uint64_t hits_before = cache.stats().hits;
    ASSERT_NE(cache.lookup_or_build(as, offset), nullptr);
    ASSERT_NE(cache.lookup_or_build(as, kCodeBase + offset), nullptr);
    EXPECT_EQ(cache.stats().hits, hits_before + 2) << "offset " << offset;
  }
  EXPECT_EQ(cache.stats().blocks_built, 2 * kSledStarts);

  // Each region alone also fits without a conflict: a second sweep over
  // all sled starts, then over all text starts, only hits.
  for (const std::uint64_t base : {std::uint64_t{0}, kCodeBase}) {
    for (std::uint64_t offset = 0; offset < kSledStarts; ++offset) {
      ASSERT_NE(cache.lookup_or_build(as, base + offset), nullptr);
    }
    const std::uint64_t built = cache.stats().blocks_built;
    for (std::uint64_t offset = 0; offset < kSledStarts; ++offset) {
      ASSERT_NE(cache.lookup_or_build(as, base + offset), nullptr);
    }
    EXPECT_EQ(cache.stats().blocks_built, built);
  }
}

// --- per-opcode engine equivalence -------------------------------------------
//
// Every opcode, and the faulting variants of those that touch memory or
// divide, runs once through cpu::step() instruction by instruction and once
// through cpu::run_block() from identical state, with budgets 0, 1, 2 and the
// whole block, with and without a leading nop (the fold). Both must leave
// identical registers and memory and report identical outcomes and counts.

constexpr std::uint64_t kDataBase = 0x60'0000;   // RW
constexpr std::uint64_t kStackBase = 0x80'0000;  // RW
constexpr std::uint64_t kWxBase = 0x90'0000;     // RWX: a store here is SMC
constexpr std::uint64_t kUnmapped = 0x7000'0000;

struct OpCase {
  std::string name;
  // Emits the instruction under test; `target` is bound after the block.
  std::function<void(Assembler&, Assembler::Label target)> emit;
  std::function<void(cpu::CpuContext&)> setup = [](cpu::CpuContext&) {};
};

std::vector<OpCase> op_cases() {
  using Label = Assembler::Label;
  auto on = [](Gpr reg, std::uint64_t value) {
    return [reg, value](cpu::CpuContext& ctx) { ctx.set_reg(reg, value); };
  };
  auto gs_at = [](std::uint64_t value) {
    return [value](cpu::CpuContext& ctx) { ctx.gs_base = value; };
  };
  auto flags = [](bool zf, bool lt, bool gt) {
    return [=](cpu::CpuContext& ctx) { ctx.flags = {zf, lt, gt}; };
  };
  const auto unmapped_stack = on(Gpr::rsp, kUnmapped);
  std::vector<OpCase> cases = {
      {"nop", [](Assembler& a, Label) { a.nop(); }},
      {"syscall", [](Assembler& a, Label) { a.syscall_(); }},
      {"sysenter", [](Assembler& a, Label) { a.sysenter_(); }},
      {"call_rax", [](Assembler& a, Label) { a.call_rax(); }},
      {"call_rax_unmapped_stack", [](Assembler& a, Label) { a.call_rax(); },
       unmapped_stack},
      {"call", [](Assembler& a, Label t) { a.call(t); }},
      {"call_unmapped_stack", [](Assembler& a, Label t) { a.call(t); },
       unmapped_stack},
      {"jmp", [](Assembler& a, Label t) { a.jmp(t); }},
      {"jmp_reg", [](Assembler& a, Label) { a.jmp_reg(Gpr::rdi); }},
      {"ret", [](Assembler& a, Label) { a.ret(); }},
      {"ret_unmapped_stack", [](Assembler& a, Label) { a.ret(); },
       unmapped_stack},
      {"hlt", [](Assembler& a, Label) { a.hlt(); }},
      {"trap", [](Assembler& a, Label) { a.trap(); }},
      {"mov_ri", [](Assembler& a, Label) { a.mov(Gpr::rcx, 0x1122'3344'5566'7788ULL); }},
      {"mov_rr", [](Assembler& a, Label) { a.mov(Gpr::rcx, Gpr::rdx); }},
      {"mov_ri32", [](Assembler& a, Label) { a.mov32(Gpr::rcx, 0xDEAD'BEEFu); }},
      {"push", [](Assembler& a, Label) { a.push(Gpr::rcx); }},
      {"push_unmapped_stack", [](Assembler& a, Label) { a.push(Gpr::rcx); },
       unmapped_stack},
      {"push_wx_stack", [](Assembler& a, Label) { a.push(Gpr::rcx); },
       on(Gpr::rsp, kWxBase + 0x100)},
      {"pop", [](Assembler& a, Label) { a.pop(Gpr::rcx); }},
      {"pop_unmapped_stack", [](Assembler& a, Label) { a.pop(Gpr::rcx); },
       unmapped_stack},
      {"add_rr", [](Assembler& a, Label) { a.add(Gpr::rcx, Gpr::rdx); }},
      {"sub_rr", [](Assembler& a, Label) { a.sub(Gpr::rcx, Gpr::rdx); }},
      {"mul_rr", [](Assembler& a, Label) { a.mul(Gpr::rcx, Gpr::rdx); }},
      {"div_rr", [](Assembler& a, Label) { a.div(Gpr::rcx, Gpr::rdx); }},
      {"div_by_zero", [](Assembler& a, Label) { a.div(Gpr::rcx, Gpr::rdx); },
       on(Gpr::rdx, 0)},
      {"mod_rr", [](Assembler& a, Label) { a.mod(Gpr::rcx, Gpr::rdx); }},
      {"mod_by_zero", [](Assembler& a, Label) { a.mod(Gpr::rcx, Gpr::rdx); },
       on(Gpr::rdx, 0)},
      {"add_ri", [](Assembler& a, Label) { a.add(Gpr::rcx, -5); }},
      {"sub_ri", [](Assembler& a, Label) { a.sub(Gpr::rcx, 9); }},
      {"cmp_ri", [](Assembler& a, Label) { a.cmp(Gpr::rcx, 0x1003); }},
      {"cmp_rr", [](Assembler& a, Label) { a.cmp(Gpr::rcx, Gpr::rdx); }},
      {"xor_rr", [](Assembler& a, Label) { a.xor_(Gpr::rcx, Gpr::rdx); }},
      {"xmov_xi", [](Assembler& a, Label) { a.xmov(3, 0xABCD); }},
      {"xmov_xr", [](Assembler& a, Label) { a.xmov_from_gpr(4, Gpr::rcx); }},
      {"xmov_rx", [](Assembler& a, Label) { a.xmov_to_gpr(Gpr::rcx, 5); }},
      {"xzero", [](Assembler& a, Label) { a.xzero(2); }},
      {"ymov_hi", [](Assembler& a, Label) { a.ymov_hi(7, Gpr::rcx); }},
      {"ymov_rd_hi", [](Assembler& a, Label) { a.ymov_rd_hi(Gpr::rcx, 1); }},
      {"fld", [](Assembler& a, Label) { a.fld(0x4010'0000'0000'0000ULL); }},
      {"fstp", [](Assembler& a, Label) { a.fstp(Gpr::rcx); }},
      {"faddp", [](Assembler& a, Label) { a.faddp(); }},
      {"rdgs", [](Assembler& a, Label) { a.rdgs(Gpr::rcx); }},
      {"wrgs", [](Assembler& a, Label) { a.wrgs(Gpr::rcx); }},
      {"hostcall", [](Assembler& a, Label) { a.hostcall(3); }},
  };
  // Conditional branches, taken and not taken.
  for (const bool taken : {true, false}) {
    const std::string suffix = taken ? "_taken" : "_not_taken";
    cases.push_back({"jz" + suffix, [](Assembler& a, Label t) { a.jz(t); },
                     flags(taken, false, false)});
    cases.push_back({"jnz" + suffix, [](Assembler& a, Label t) { a.jnz(t); },
                     flags(!taken, false, false)});
    cases.push_back({"jlt" + suffix, [](Assembler& a, Label t) { a.jlt(t); },
                     flags(false, taken, false)});
    cases.push_back({"jgt" + suffix, [](Assembler& a, Label t) { a.jgt(t); },
                     flags(false, false, taken)});
  }
  // Register-based loads and stores: rbx points at data, r9 at nothing,
  // r12 into the (read-only) code page, rsi into the RWX page.
  struct MemBase {
    const char* name;
    Gpr base;
  };
  constexpr MemBase kLoadBases[] = {{"", Gpr::rbx}, {"_unmapped", Gpr::r9}};
  constexpr MemBase kStoreBases[] = {{"", Gpr::rbx},
                                     {"_unmapped", Gpr::r9},
                                     {"_exec_page", Gpr::r12},
                                     {"_wx_page", Gpr::rsi}};
  for (const MemBase& b : kLoadBases) {
    const Gpr base = b.base;
    cases.push_back({std::string("load") + b.name,
                     [base](Assembler& a, Label) { a.load(Gpr::rcx, base, 8); }});
    cases.push_back({std::string("load8") + b.name,
                     [base](Assembler& a, Label) { a.load8(Gpr::rcx, base, 9); }});
    cases.push_back({std::string("xload") + b.name,
                     [base](Assembler& a, Label) { a.xload(6, base, 16); }});
  }
  for (const MemBase& b : kStoreBases) {
    const Gpr base = b.base;
    cases.push_back({std::string("store") + b.name,
                     [base](Assembler& a, Label) { a.store(base, 24, Gpr::rcx); }});
    cases.push_back({std::string("store8") + b.name,
                     [base](Assembler& a, Label) { a.store8(base, 25, Gpr::rcx); }});
    cases.push_back({std::string("xstore") + b.name,
                     [base](Assembler& a, Label) { a.xstore(base, 32, 6); }});
  }
  // %gs-relative forms: the same four targets through gs_base, the first
  // two of them for loads.
  const std::pair<const char*, std::uint64_t> kGsBases[] = {
      {"", kDataBase + 0x100},
      {"_unmapped", kUnmapped},
      {"_exec_page", kCodeBase + 0x200},
      {"_wx_page", kWxBase + 0x40}};
  for (std::size_t i = 0; i < std::size(kGsBases); ++i) {
    const auto& [suffix, gs] = kGsBases[i];
    if (i < 2) {
      cases.push_back({std::string("load_gs") + suffix,
                       [](Assembler& a, Label) { a.load_gs(Gpr::rcx, 8); }, gs_at(gs)});
      cases.push_back({std::string("load_gs8") + suffix,
                       [](Assembler& a, Label) { a.load_gs8(Gpr::rcx, 9); }, gs_at(gs)});
    }
    cases.push_back({std::string("store_gs") + suffix,
                     [](Assembler& a, Label) { a.store_gs(16, Gpr::rcx); }, gs_at(gs)});
    cases.push_back({std::string("store_gs8") + suffix,
                     [](Assembler& a, Label) { a.store_gs8(17, Gpr::rcx); }, gs_at(gs)});
  }
  return cases;
}

// The address space and context an OpCase runs from; built twice per run so
// both engines start from identical state.
struct OpState {
  mem::AddressSpace as;
  cpu::CpuContext ctx;
  cpu::DataTlb tlb;
  cpu::BlockCache cache;
  isa::Op op = isa::Op::kNop;  // the opcode under test
};

void build_op_state(const OpCase& c, bool lead_nop, OpState& s) {
  Assembler a;
  const Assembler::Label target = a.new_label();
  if (lead_nop) a.nop();
  c.emit(a, target);
  a.add(Gpr::rcx, 1);  // reached only when the instruction falls through
  a.hlt();
  a.bind(target);
  a.hlt();
  const auto code = a.finish().value();
  const std::size_t at = lead_nop ? 1 : 0;
  s.op = isa::decode({code.data() + at, code.size() - at}).value().op;

  ASSERT_TRUE(s.as.map(kCodeBase, mem::kPageSize,
                       mem::kProtRead | mem::kProtExec, true)
                  .is_ok());
  ASSERT_TRUE(s.as.write_force(kCodeBase, code).is_ok());
  std::vector<std::uint8_t> pattern(mem::kPageSize);
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  constexpr std::uint8_t kRw = mem::kProtRead | mem::kProtWrite;
  for (const auto& [base, prot] :
       {std::pair{kDataBase, kRw}, std::pair{kStackBase, kRw},
        std::pair{kWxBase, static_cast<std::uint8_t>(kRw | mem::kProtExec)}}) {
    ASSERT_TRUE(s.as.map(base, mem::kPageSize, prot, true).is_ok());
    ASSERT_TRUE(s.as.write_force(base, pattern).is_ok());
  }

  for (std::size_t i = 0; i < isa::kNumGprs; ++i) {
    s.ctx.gpr[i] = 0x1000 + 0x111 * i;
  }
  s.ctx.set_reg(Gpr::rax, kCodeBase + 0x300);  // call rax target
  s.ctx.set_reg(Gpr::rdi, kCodeBase + 0x340);  // jmp reg target
  s.ctx.set_reg(Gpr::rdx, 3);
  s.ctx.set_reg(Gpr::rbx, kDataBase + 0x40);
  s.ctx.set_reg(Gpr::rsi, kWxBase + 0x10);
  s.ctx.set_reg(Gpr::r9, kUnmapped);
  s.ctx.set_reg(Gpr::r12, kCodeBase + 0x200);
  s.ctx.set_rsp(kStackBase + 0x800);
  s.ctx.gs_base = kDataBase + 0x100;
  for (std::uint8_t x = 0; x < isa::kNumXmm; ++x) {
    s.ctx.xstate.xmm[x] = {0x10ULL * x + 1, 0x10ULL * x + 2};
    s.ctx.xstate.ymm_hi[x] = {0x20ULL * x + 3, 0x20ULL * x + 4};
  }
  s.ctx.xstate.x87_push(0x3FF8'0000'0000'0000ULL);  // 1.5
  s.ctx.xstate.x87_push(0x4002'0000'0000'0000ULL);  // 2.25
  s.ctx.rip = kCodeBase;
  c.setup(s.ctx);
}

struct OpOutcome {
  cpu::ExecKind kind = cpu::ExecKind::kContinue;
  std::uint32_t executed = 0;
  std::uint32_t retired = 0;
  std::uint32_t nops = 0;
  mem::MemFault fault{};
};

// The reference: cpu::step() one instruction at a time over the block's
// instructions, under the block contract (stop at the budget, the first
// non-continue outcome, or a store that moved the code generation).
OpOutcome step_reference(OpState& s, std::uint64_t budget, std::size_t size) {
  OpOutcome out;
  const std::uint64_t code_gen = s.as.code_gen();
  while (out.executed < std::min<std::uint64_t>(budget, size)) {
    const cpu::ExecResult r = cpu::step(s.ctx, s.as, nullptr, &s.tlb);
    ++out.executed;
    out.kind = r.kind;
    if (r.kind == cpu::ExecKind::kContinue || r.kind == cpu::ExecKind::kSyscall) {
      ++out.retired;
      if (r.insn->op == isa::Op::kNop) ++out.nops;
    }
    if (r.kind == cpu::ExecKind::kMemFault) out.fault = r.fault;
    if (r.kind != cpu::ExecKind::kContinue || s.as.code_gen() != code_gen) break;
  }
  return out;
}

std::vector<std::uint8_t> snapshot(const mem::AddressSpace& as) {
  std::vector<std::uint8_t> bytes;
  for (const std::uint64_t base : {kCodeBase, kDataBase, kStackBase, kWxBase}) {
    std::vector<std::uint8_t> page(mem::kPageSize);
    EXPECT_TRUE(as.read_force(base, page).is_ok());
    bytes.insert(bytes.end(), page.begin(), page.end());
  }
  return bytes;
}

TEST(BlockExecOpTest, EveryOpcodeMatchesStepAtEveryBudget) {
  std::set<isa::Op> covered;
  std::set<cpu::ExecKind> kinds;
  for (const OpCase& c : op_cases()) {
    for (const bool lead_nop : {false, true}) {
      for (const std::uint64_t budget : std::initializer_list<std::uint64_t>{0, 1, 2, 64}) {
        SCOPED_TRACE(c.name + (lead_nop ? " after a nop" : "") + ", budget " +
                     std::to_string(budget));
        OpState ref;
        OpState blk;
        build_op_state(c, lead_nop, ref);
        build_op_state(c, lead_nop, blk);
        ASSERT_FALSE(HasFatalFailure());

        const cpu::DecodedBlock* block =
            blk.cache.lookup_or_build(blk.as, kCodeBase);
        ASSERT_NE(block, nullptr);
        covered.insert(blk.op);
        EXPECT_EQ(block->lead_nops,
                  (lead_nop ? 1u : 0u) + (blk.op == isa::Op::kNop ? 1u : 0u));

        const OpOutcome want = step_reference(ref, budget, block->size());
        const cpu::BlockRun got =
            cpu::run_block(blk.ctx, blk.as, *block, budget, &blk.tlb);
        kinds.insert(got.kind);

        EXPECT_EQ(got.kind, want.kind);
        EXPECT_EQ(got.executed, want.executed);
        EXPECT_EQ(got.retired, want.retired);
        EXPECT_EQ(got.nops, want.nops);
        if (want.kind == cpu::ExecKind::kMemFault) {
          EXPECT_EQ(got.fault.address, want.fault.address);
          EXPECT_EQ(got.fault.kind, want.fault.kind);
          EXPECT_EQ(got.fault.unmapped, want.fault.unmapped);
        }
        EXPECT_TRUE(blk.ctx == ref.ctx)
            << "rip " << blk.ctx.rip << " vs " << ref.ctx.rip;
        EXPECT_TRUE(snapshot(blk.as) == snapshot(ref.as));
        EXPECT_EQ(blk.as.code_gen(), ref.as.code_gen());
      }
    }
  }
  EXPECT_EQ(covered.size(), isa::kNumOps);
  // Every exit a block can take was exercised (kInvalidOpcode cannot occur:
  // blocks hold only decoded instructions).
  for (const cpu::ExecKind kind :
       {cpu::ExecKind::kContinue, cpu::ExecKind::kSyscall, cpu::ExecKind::kHlt,
        cpu::ExecKind::kTrap, cpu::ExecKind::kMemFault,
        cpu::ExecKind::kHostCall, cpu::ExecKind::kDivideError}) {
    EXPECT_EQ(kinds.count(kind), 1u) << static_cast<int>(kind);
  }
}

// --- the retired-only counter contract (satellite regression) ---------------

TEST(RetiredCounterTest, SignalKillStepDoesNotAdvanceTotalInsns) {
  const auto program = testutil::make_syscall_loop(kern::kSysGetpid, 100000);
  kern::Machine machine;
  const kern::Tid tid = machine.load(program).value();

  (void)machine.run(500);  // partial run; task parked at a slice boundary
  kern::Task* task = machine.find_task(tid);
  ASSERT_NE(task, nullptr);
  ASSERT_TRUE(task->runnable());
  const std::uint64_t retired_before = machine.total_insns();
  const std::uint64_t steps_before = machine.total_steps();
  EXPECT_EQ(retired_before, task->insns_retired);

  kern::SigInfo info;
  info.signo = kern::kSigkill;
  ASSERT_TRUE(machine.post_signal(tid, info).is_ok());
  const auto stats = machine.run();
  ASSERT_TRUE(stats.all_exited) << machine.last_fatal();

  // The kill-delivery slice is one machine step that retires nothing: the
  // scheduling clock moves, the retired counter must not.
  EXPECT_EQ(machine.total_insns(), retired_before);
  EXPECT_EQ(machine.total_insns(), task->insns_retired);
  EXPECT_EQ(machine.total_steps(), steps_before + 1);
}

TEST(RetiredCounterTest, HostDispatchStepsCountAsStepsNotRetirements) {
  const auto program = testutil::make_syscall_loop(kern::kSysGetpid, 50);
  kern::Machine machine;
  machine.mmap_min_addr = 0;
  machine.register_program(program);
  const kern::Tid tid = machine.load(program).value();
  auto runtime = core::Lazypoline::create(machine, {});
  ASSERT_TRUE(runtime
                  ->install(machine, tid,
                            std::make_shared<interpose::DummyHandler>())
                  .is_ok());
  const auto stats = machine.run();
  ASSERT_TRUE(stats.all_exited) << machine.last_fatal();

  // total_insns() is exactly the sum of per-task retirements; the interposer
  // runtime's host-fn steps appear only in total_steps().
  EXPECT_EQ(machine.total_insns(), machine.find_task(tid)->insns_retired);
  EXPECT_GT(machine.total_steps(), machine.total_insns());
  EXPECT_EQ(stats.insns, machine.total_insns());
}

// --- differential: engine on vs off -----------------------------------------

struct MachineOutcome {
  int exit_code = 0;
  std::uint64_t cycles = 0;
  std::uint64_t insns = 0;
  std::uint64_t steps = 0;
  std::vector<std::uint8_t> data;
};

// Straight-line random programs: arithmetic, data-region traffic, stack
// round trips, and sprinkled syscalls (same register discipline as the
// transparency fuzz in property_test.cpp).
isa::Program make_random_program(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const Gpr pool[] = {Gpr::rax, Gpr::rbx, Gpr::rdx, Gpr::rbp, Gpr::rsi,
                      Gpr::rdi, Gpr::r8,  Gpr::r10, Gpr::r12, Gpr::r13,
                      Gpr::r14, Gpr::r15};
  auto reg = [&] { return pool[rng.next_below(std::size(pool))]; };
  auto disp = [&] { return static_cast<std::int32_t>(rng.next_below(64) * 8); };

  Assembler a;
  const auto entry = a.new_label();
  a.bind(entry);
  a.mov(Gpr::r9, apps::kDataBase);
  for (Gpr r : pool) a.mov(r, rng.next_below(0xFFFF));
  const std::uint64_t length = 40 + rng.next_below(60);
  for (std::uint64_t i = 0; i < length; ++i) {
    switch (rng.next_below(8)) {
      case 0: a.mov(reg(), rng.next_below(1 << 20)); break;
      case 1: a.add(reg(), reg()); break;
      case 2: a.sub(reg(), reg()); break;
      case 3: a.mul(reg(), reg()); break;
      case 4: a.store(Gpr::r9, disp(), reg()); break;
      case 5: a.load(reg(), Gpr::r9, disp()); break;
      case 6: {
        const Gpr r1 = reg();
        const Gpr r2 = reg();
        a.push(r1);
        a.pop(r2);
        break;
      }
      case 7:
        a.mov(Gpr::rax, std::uint64_t{kern::kSysGetpid});
        a.syscall_();
        break;
    }
  }
  a.mov(Gpr::rdi, Gpr::rbx);
  apps::emit_syscall(a, kern::kSysExitGroup);
  return isa::make_program("blockfuzz-" + std::to_string(seed), a, entry)
      .value();
}

MachineOutcome run_native(const isa::Program& program, bool block_on) {
  kern::Machine machine;
  machine.block_exec_enabled = block_on;
  kern::Tid tid = 0;
  MachineOutcome out;
  out.exit_code = testutil::load_and_run(machine, program, &tid);
  out.cycles = machine.total_cycles();
  out.insns = machine.total_insns();
  out.steps = machine.total_steps();
  out.data.resize(0x300);
  EXPECT_TRUE(machine.find_task(tid)
                  ->mem->read_force(apps::kDataBase, out.data)
                  .is_ok());
  return out;
}

class BlockExecFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BlockExecFuzzTest, RandomProgramsMatchReferencePathExactly) {
  Xoshiro256 seeder(GetParam());
  for (int round = 0; round < 20; ++round) {
    const std::uint64_t seed = seeder.next();
    const isa::Program program = make_random_program(seed);
    const MachineOutcome ref = run_native(program, false);
    const MachineOutcome block = run_native(program, true);
    ASSERT_EQ(block.exit_code, ref.exit_code) << "seed " << seed;
    ASSERT_EQ(block.cycles, ref.cycles) << "seed " << seed;
    ASSERT_EQ(block.insns, ref.insns) << "seed " << seed;
    ASSERT_EQ(block.steps, ref.steps) << "seed " << seed;
    ASSERT_EQ(block.data, ref.data) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlockExecFuzzTest,
                         ::testing::Values(21, 42, 84, 168));

TEST(BlockExecDifferentialTest, LazypolineLoopMatchesReferencePath) {
  const auto program = testutil::make_syscall_loop(kern::kSysGetpid, 200);

  auto run_with = [&](bool engine_on) {
    kern::Machine machine;
    machine.block_exec_enabled = engine_on;
    machine.mmap_min_addr = 0;
    machine.register_program(program);
    const kern::Tid tid = machine.load(program).value();
    auto handler = std::make_shared<interpose::TracingHandler>();
    auto runtime = core::Lazypoline::create(machine, {});
    EXPECT_TRUE(runtime->install(machine, tid, handler).is_ok());
    const auto stats = machine.run();
    EXPECT_TRUE(stats.all_exited) << machine.last_fatal();
    MachineOutcome out;
    out.exit_code = machine.find_task(tid)->exit_code;
    out.cycles = machine.total_cycles();
    out.insns = machine.total_insns();
    out.steps = machine.total_steps();
    out.data.push_back(static_cast<std::uint8_t>(handler->trace().size()));
#ifndef LZP_BLOCK_EXEC_DISABLED
    if (engine_on) {
      // The hot loop really ran through the block cache, and the runtime's
      // site rewrites invalidated warm blocks (SMC contract).
      EXPECT_GT(machine.block_cache_totals().hits, 0u);
      EXPECT_GE(machine.block_cache_totals().invalidations, 1u);
    } else {
      EXPECT_EQ(machine.block_cache_totals().hits +
                    machine.block_cache_totals().misses,
                0u);
    }
#endif
    return out;
  };

  const MachineOutcome on = run_with(true);
  const MachineOutcome off = run_with(false);
  EXPECT_EQ(on.exit_code, off.exit_code);
  EXPECT_EQ(on.cycles, off.cycles);
  EXPECT_EQ(on.insns, off.insns);
  EXPECT_EQ(on.steps, off.steps);
  EXPECT_EQ(on.data, off.data);
}

TEST(BlockExecDifferentialTest, WebserverMatchesReferencePath) {
  constexpr std::uint64_t kRequests = 30;
  constexpr std::uint64_t kFileSize = 256;
  constexpr int kWorkers = 2;
  const apps::ServerProfile profile = apps::nginx_profile();

  auto run_with = [&](bool block_on, std::string* metrics_out) {
    kern::Machine machine;
    machine.block_exec_enabled = block_on;
    machine.mmap_min_addr = 0;
#ifndef LZP_TRACE_DISABLED
    trace::Tracer tracer;
    tracer.attach(machine);
#endif
    EXPECT_TRUE(machine.vfs().put_file_of_size("index.html", kFileSize).is_ok());
    kern::ClientWorkload workload;
    workload.connections = 4;
    workload.total_requests = kRequests;
    workload.response_bytes = profile.header_bytes + kFileSize;
    const int listener = machine.net().create_listener(workload);

    auto program = apps::make_webserver(machine, profile, "index.html");
    EXPECT_TRUE(program.is_ok()) << program.status().to_string();
    machine.register_program(program.value());
    std::vector<kern::Tid> tids;
    for (int w = 0; w < kWorkers; ++w) {
      const kern::Tid tid = machine.load(program.value()).value();
      kern::FdEntry entry;
      entry.kind = kern::FdEntry::Kind::kListener;
      entry.net_id = listener;
      machine.find_task(tid)->process->install_fd_at(apps::kListenerFd, entry);
      tids.push_back(tid);
      mechanisms::SudMechanism mechanism;
      EXPECT_TRUE(mechanism
                      .install(machine, tid,
                               std::make_shared<interpose::DummyHandler>())
                      .is_ok());
    }
    const auto stats = machine.run(400'000'000ULL);
    EXPECT_TRUE(stats.all_exited) << machine.last_fatal();
    EXPECT_EQ(machine.net().completed_requests(listener), kRequests);

    MachineOutcome out;
    out.cycles = machine.total_cycles();
    out.insns = machine.total_insns();
    out.steps = machine.total_steps();
    for (const kern::Tid tid : tids) {
      out.data.push_back(
          static_cast<std::uint8_t>(machine.find_task(tid)->exit_code));
    }
#ifndef LZP_TRACE_DISABLED
    if (metrics_out != nullptr) {
      // Everything in the metrics tables except the execution-cache counters
      // (which exist precisely to differ between the two paths) must match.
      // ring.events aggregates the invalidation events too, so it goes with
      // them.
      std::istringstream in(trace::render_summary(tracer));
      std::string line;
      while (std::getline(in, line)) {
        if (line.find("bcache.") != std::string::npos ||
            line.find("dcache.") != std::string::npos ||
            line.find("ring.events") != std::string::npos) {
          continue;
        }
        *metrics_out += line + "\n";
      }
    }
    tracer.detach(machine);
#else
    (void)metrics_out;
#endif
    return out;
  };

  std::string metrics_ref;
  std::string metrics_block;
  const MachineOutcome ref = run_with(false, &metrics_ref);
  const MachineOutcome block = run_with(true, &metrics_block);
  EXPECT_EQ(block.cycles, ref.cycles);
  EXPECT_EQ(block.insns, ref.insns);
  EXPECT_EQ(block.steps, ref.steps);
  EXPECT_EQ(block.data, ref.data);
  EXPECT_EQ(metrics_block, metrics_ref);
}

// --- SMC and SMP shootdown under batched execution ----------------------------

TEST(BlockExecSmcTest, SmcMidRunInvalidatesBlocksAndNewBytesExecute) {
  // Loop body sets rdx to a marker immediate each iteration; the final exit
  // code is rdx. Mid-run, the marker is patched from 0x11 to 0x22 with a
  // privileged write (the runtime-rewrite path, bumping the page
  // generation): the warm blocks on that page must drop, and the remaining
  // iterations must run the new bytes — on both paths, at identical counts.
  constexpr std::uint64_t kMarkerOld = 0x11;
  constexpr std::uint64_t kMarkerNew = 0x22;
  Assembler a;
  const auto entry = a.new_label();
  const auto loop = a.new_label();
  const auto done = a.new_label();
  a.bind(entry);
  a.mov(Gpr::rbx, 3'000);
  a.bind(loop);
  a.cmp(Gpr::rbx, 0);
  a.jz(done);
  a.mov(Gpr::rdx, kMarkerOld);
  for (int i = 0; i < 6; ++i) a.add(Gpr::rcx, 1);
  a.sub(Gpr::rbx, 1);
  a.jmp(loop);
  a.bind(done);
  a.mov(Gpr::rdi, Gpr::rdx);
  apps::emit_syscall(a, kern::kSysExitGroup);
  const isa::Program program = isa::make_program("smc-loop", a, entry).value();

  // Locate the marker immediate's bytes in the image (unique by value).
  std::uint8_t imm[8];
  std::uint64_t value = kMarkerOld;
  std::memcpy(imm, &value, 8);
  std::size_t offset = 0;
  int found = 0;
  for (std::size_t i = 0; i + 8 <= program.image.size(); ++i) {
    if (std::memcmp(program.image.data() + i, imm, 8) == 0) {
      offset = i;
      ++found;
    }
  }
  ASSERT_EQ(found, 1);
  value = kMarkerNew;
  std::memcpy(imm, &value, 8);

  auto run_with = [&](bool block_on) {
    kern::Machine machine;
    machine.block_exec_enabled = block_on;
    const kern::Tid tid = machine.load(program).value();
    // Run far enough that the loop's blocks are warm, then stop at a slice
    // boundary mid-loop and patch.
    (void)machine.run(10'000);
    kern::Task* task = machine.find_task(tid);
    EXPECT_TRUE(task->runnable());
    EXPECT_TRUE(task->mem->write_force(program.base + offset, imm).is_ok());
    const auto stats = machine.run();
    EXPECT_TRUE(stats.all_exited) << machine.last_fatal();
#ifndef LZP_BLOCK_EXEC_DISABLED
    if (block_on) {
      EXPECT_GE(machine.block_cache_totals().invalidations, 1u);
    }
#endif
    MachineOutcome out;
    out.exit_code = task->exit_code;
    out.cycles = machine.total_cycles();
    out.insns = machine.total_insns();
    out.steps = machine.total_steps();
    return out;
  };

  const MachineOutcome block = run_with(true);
  const MachineOutcome ref = run_with(false);
  // The patch is what the remaining iterations executed — a stale block
  // would have exited with the old marker.
  EXPECT_EQ(block.exit_code, static_cast<int>(kMarkerNew));
  EXPECT_EQ(block.exit_code, ref.exit_code);
  EXPECT_EQ(block.cycles, ref.cycles);
  EXPECT_EQ(block.insns, ref.insns);
  EXPECT_EQ(block.steps, ref.steps);
}

TEST(BlockExecSmpTest, FourCpuShootdownDuringBatchedExecution) {
  // CLONE_VM threads spread over 4 CPUs (gang_shared=false) under
  // lazypoline: the runtime's self-modifying site rewrites on one CPU must
  // shoot down the blocks other CPUs are executing, and the workload must
  // still serve every request.
  kern::Machine machine;
  machine.mmap_min_addr = 0;
  ASSERT_TRUE(machine.vfs().put_file_of_size("index.html", 1024).is_ok());
  kern::ClientWorkload workload;
  workload.connections = 12;
  workload.total_requests = 300;
  workload.response_bytes = apps::nginx_profile().header_bytes + 1024;
  const int listener = machine.net().create_listener(workload);

  auto program = apps::make_threaded_webserver(machine, apps::nginx_profile(),
                                               "index.html", 4)
                     .value();
  machine.register_program(program);
  const kern::Tid main_tid = machine.load(program).value();
  kern::FdEntry entry;
  entry.kind = kern::FdEntry::Kind::kListener;
  entry.net_id = listener;
  machine.find_task(main_tid)->process->install_fd_at(apps::kListenerFd, entry);
  auto runtime = core::Lazypoline::create(machine, {});
  ASSERT_TRUE(runtime
                  ->install(machine, main_tid,
                            std::make_shared<interpose::DummyHandler>())
                  .is_ok());

  kern::SmpConfig config;
  config.cpus = 4;
  config.seed = 5;
  config.gang_shared = false;
  const kern::SmpStats stats = machine.run_smp(config);
  EXPECT_TRUE(stats.all_exited) << machine.last_fatal();
  EXPECT_EQ(machine.net().completed_requests(listener), 300u);

  std::set<unsigned> cpus_used;
  for (kern::Tid tid : machine.task_ids()) {
    cpus_used.insert(machine.find_task(tid)->cpu);
  }
#ifndef LZP_BLOCK_EXEC_DISABLED
  EXPECT_GT(machine.block_cache_totals().hits, 0u);
#endif
  if (cpus_used.size() > 1) {
    EXPECT_GT(stats.shootdowns, 0u)
        << "spread CLONE_VM siblings saw no SMC shootdown";
  }
}

// --- the leading-nop fold on the sled ----------------------------------------

TEST(BlockExecSuperopTest, NopSledSlicesMatchReferencePath) {
  // run_block folds a block's leading nops in O(1), as far as the slice
  // budget reaches: all of a sled block when the budget covers it, and its
  // first `budget` nops when the budget ends inside it. Drive a
  // zpoline and a lazypoline getpid loop (rax = 39 lands ~470 nops before
  // the sled's end) slice by slice with an uneven budget sequence, and
  // check after every slice that the engine agrees with the reference path
  // on rip, steps, cycles, and retired instructions; at the end, that the
  // profiler's class sums are identical too.
  constexpr std::uint64_t kBudgets[] = {1, 3, 7, 13, 31, 32, 33, 64, 97, 5, 200};
  const isa::Program program =
      testutil::make_syscall_loop(kern::kSysGetpid, 40, "sled-loop");

  struct Lane {
    profile::Profiler profiler;  // outlives the machine holding it as sink
    kern::Machine machine;
    kern::Task* task = nullptr;
  };
  auto make_lane = [&](Lane& lane, bool block_on, bool zpoline) {
    lane.machine.block_exec_enabled = block_on;
    lane.machine.mmap_min_addr = 0;
    lane.profiler.attach(lane.machine);
    lane.machine.register_program(program);
    const kern::Tid tid = lane.machine.load(program).value();
    auto handler = std::make_shared<interpose::DummyHandler>();
    const Status status =
        zpoline ? zpoline::ZpolineMechanism().install(lane.machine, tid, handler)
                : core::Lazypoline::create(lane.machine, {})
                      ->install(lane.machine, tid, handler);
    EXPECT_TRUE(status.is_ok()) << status.to_string();
    lane.task = lane.machine.find_task(tid);
  };

  for (const bool zpoline : {true, false}) {
    SCOPED_TRACE(zpoline ? "zpoline" : "lazypoline");
    Lane block;
    Lane ref;
    make_lane(block, true, zpoline);
    make_lane(ref, false, zpoline);

    // Classifies each slice that starts on a block of nops only: either the
    // budget covers the block or it ends inside it.
    cpu::BlockCache probe;
    std::uint64_t superop_slices = 0;
    std::uint64_t cut_slices = 0;
    for (std::size_t i = 0; block.task->runnable(); ++i) {
      ASSERT_LT(i, 100'000u) << "loop did not finish";
      const std::uint64_t budget = kBudgets[i % std::size(kBudgets)];
      if (const cpu::DecodedBlock* head =
              probe.lookup_or_build(*block.task->mem, block.task->ctx.rip);
          head != nullptr && head->insns.empty()) {
        if (budget >= head->size()) {
          ++superop_slices;
        } else {
          ++cut_slices;
        }
      }
      block.machine.run_slice(*block.task, budget);
      ref.machine.run_slice(*ref.task, budget);
      ASSERT_EQ(block.task->ctx.rip, ref.task->ctx.rip) << "slice " << i;
      ASSERT_EQ(block.machine.total_steps(), ref.machine.total_steps());
      ASSERT_EQ(block.machine.total_cycles(), ref.machine.total_cycles());
      ASSERT_EQ(block.machine.total_insns(), ref.machine.total_insns());
    }
    EXPECT_FALSE(ref.task->runnable());
    EXPECT_EQ(block.task->exit_code, 0);
    EXPECT_GT(superop_slices, 0u);
    EXPECT_GT(cut_slices, 0u);

    // run() on the exited machines only flushes the profile mirror.
    (void)block.machine.run();
    (void)ref.machine.run();
    EXPECT_EQ(block.profiler.class_cycles(), ref.profiler.class_cycles());
    EXPECT_EQ(block.profiler.total_cycles(), block.machine.total_cycles());
  }
}

// --- record/replay neutrality ------------------------------------------------

// Records a SUD getpid loop. `engaged` reports whether the block engine ran
// the recording: blocks were looked up, and every reference-path step was
// host code (the SIGSYS handler).
replay::Trace record_loop(bool block_on, bool* engaged) {
  const auto program = testutil::make_syscall_loop(kern::kSysGetpid, 40);
  auto recorder = std::make_shared<replay::Recorder>();
  kern::Machine machine;
  machine.block_exec_enabled = block_on;
  machine.mmap_min_addr = 0;
  machine.register_program(program);
  recorder->attach(machine, /*rng_seed=*/42, "sud", "loop");
  const kern::Tid tid = machine.load(program).value();
  mechanisms::SudMechanism mechanism;
  EXPECT_TRUE(mechanism.install(machine, tid, recorder).is_ok());
  const auto stats = machine.run();
  EXPECT_TRUE(stats.all_exited) << machine.last_fatal();
  const cpu::BlockCacheStats blocks = machine.block_cache_totals();
  const kern::FallbackStats fallbacks = machine.fallback_totals();
  *engaged = blocks.hits + blocks.misses > 0 &&
             fallbacks.total() == fallbacks.host_rip;
  return recorder->take_trace();
}

TEST(BlockExecReplayTest, RecordedTracesAreIdenticalAcrossEngines) {
  bool engaged_on = false;
  bool engaged_off = true;
  EXPECT_EQ(record_loop(true, &engaged_on), record_loop(false, &engaged_off));
  EXPECT_FALSE(engaged_off);
#ifndef LZP_BLOCK_EXEC_DISABLED
  // Not vacuous: the Recorder (a slice observer) leaves the engine on, so
  // the two recordings really ran on different engines.
  EXPECT_TRUE(engaged_on);
#endif
}

TEST(BlockExecReplayTest, ExternalKillRoundTripsWithEngineEnabled) {
  const auto program =
      testutil::make_syscall_loop(kern::kSysGetpid, 100000, "killed-loop");

  auto recorder = std::make_shared<replay::Recorder>();
  int recorded_exit = 0;
  std::uint64_t recorded_retired = 0;
  {
    kern::Machine machine;
    machine.mmap_min_addr = 0;
    machine.register_program(program);
    recorder->attach(machine, /*rng_seed=*/9, "sud", "killed-loop");
    const kern::Tid tid = machine.load(program).value();
    mechanisms::SudMechanism mechanism;
    ASSERT_TRUE(mechanism.install(machine, tid, recorder).is_ok());
    (void)machine.run(4000);  // partial run, then the kill arrives
    kern::SigInfo info;
    info.signo = kern::kSigkill;
    ASSERT_TRUE(machine.post_signal(tid, info).is_ok());
    const auto stats = machine.run();
    ASSERT_TRUE(stats.all_exited) << machine.last_fatal();
    recorded_exit = machine.find_task(tid)->exit_code;
    recorded_retired = machine.find_task(tid)->insns_retired;
  }

  auto replayer = std::make_shared<replay::Replayer>(recorder->take_trace());
  {
    kern::Machine machine;
    machine.mmap_min_addr = 0;
    machine.register_program(program);
    replayer->attach(machine);
    const kern::Tid tid = machine.load(program).value();
    mechanisms::SudMechanism mechanism;
    ASSERT_TRUE(mechanism.install(machine, tid, replayer).is_ok());
    const auto stats = machine.run();
    EXPECT_TRUE(replayer->status().is_ok()) << replayer->status().to_string();
    ASSERT_TRUE(stats.all_exited) << machine.last_fatal();
    EXPECT_EQ(machine.find_task(tid)->exit_code, recorded_exit);
    EXPECT_EQ(machine.find_task(tid)->insns_retired, recorded_retired);
  }
  EXPECT_EQ(replayer->stats().signals_posted, 1u);
}

// --- fallback accounting -----------------------------------------------------

TEST(FallbackCounterTest, CountsEveryReferenceStepByReason) {
  const auto program = testutil::make_syscall_loop(kern::kSysGetpid, 20);
  struct Leg {
    const char* name;
    std::function<void(kern::Machine&, kern::Tid)> setup;
    std::uint64_t kern::FallbackStats::*reason;
  };
  const Leg legs[] = {
      {"engine off",
       [](kern::Machine& machine, kern::Tid) {
         machine.block_exec_enabled = false;
       },
       &kern::FallbackStats::engine_disabled},
      {"insn observer",
       [](kern::Machine& machine, kern::Tid) {
         machine.add_insn_observer(
             [](const kern::Task&, const isa::Instruction&) {});
       },
       &kern::FallbackStats::insn_observer},
      {"ptrace",
       [](kern::Machine& machine, kern::Tid tid) {
         EXPECT_TRUE(mechanisms::PtraceMechanism()
                         .install(machine, tid,
                                  std::make_shared<interpose::DummyHandler>())
                         .is_ok());
       },
       &kern::FallbackStats::ptraced},
  };
  for (const Leg& leg : legs) {
    SCOPED_TRACE(leg.name);
    kern::Machine machine;
    const kern::Tid tid = machine.load(program).value();
    leg.setup(machine, tid);
    ASSERT_TRUE(machine.run().all_exited) << machine.last_fatal();
    const kern::FallbackStats fallbacks = machine.fallback_totals();
#ifndef LZP_BLOCK_EXEC_DISABLED
    // Each refusal reason outranks the rest, so every step lands on it.
    EXPECT_EQ(fallbacks.*leg.reason, machine.total_steps());
    EXPECT_EQ(fallbacks.total(), machine.total_steps());
#else
    EXPECT_EQ(fallbacks.total(), 0u);  // no engine to fall back from
#endif
  }
}

TEST(FallbackCounterTest, SignalHostCodeAndMissingBlockAreCounted) {
  const auto program = testutil::make_syscall_loop(kern::kSysGetpid, 50);
  kern::Machine machine;
  const kern::Tid tid = machine.load(program).value();
  kern::Task* task = machine.find_task(tid);
  const std::uint64_t handler = machine.bind_host(
      "block_exec_test.sigusr1", [](kern::HostFrame& frame) {
        (void)frame.syscall(kern::kSysRtSigreturn);
      });
  task->process->sigactions[kern::kSigusr1] = kern::SigAction{handler, 0, 0};
  (void)machine.run(100);
  kern::SigInfo info;
  info.signo = kern::kSigusr1;
  ASSERT_TRUE(machine.post_signal(tid, info).is_ok());
  ASSERT_TRUE(machine.run().all_exited) << machine.last_fatal();

  // A second task whose rip points at unmapped memory: no block can be
  // built, so its one step (the fetch fault that kills it) is a fallback.
  const kern::Tid lost = machine.load(program).value();
  machine.find_task(lost)->ctx.rip = 0xdead'0000;
  (void)machine.run();
  EXPECT_FALSE(machine.find_task(lost)->runnable());

  const kern::FallbackStats fallbacks = machine.fallback_totals();
#ifndef LZP_BLOCK_EXEC_DISABLED
  // The delivery step also runs the host-function handler it lands on, so
  // the handler costs no host_rip step of its own.
  EXPECT_EQ(fallbacks.signal, 1u);
  EXPECT_EQ(fallbacks.host_rip, 0u);
  EXPECT_EQ(fallbacks.no_block, 1u);  // the unmapped fetch
  EXPECT_EQ(fallbacks.total(), 2u);
  EXPECT_EQ(machine.find_task(lost)->fallbacks.no_block, 1u);
#else
  EXPECT_EQ(fallbacks.total(), 0u);
#endif
}

}  // namespace
}  // namespace lzp
