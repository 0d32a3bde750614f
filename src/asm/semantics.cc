#include "asm/semantics.h"

#include <algorithm>

#include "base/logging.h"
#include "base/string_util.h"

namespace granite::assembly {

std::string_view InstructionCategoryName(InstructionCategory category) {
  switch (category) {
    case InstructionCategory::kMove: return "move";
    case InstructionCategory::kMoveExtend: return "move_extend";
    case InstructionCategory::kLea: return "lea";
    case InstructionCategory::kAluSimple: return "alu_simple";
    case InstructionCategory::kAluCarry: return "alu_carry";
    case InstructionCategory::kAluCompare: return "alu_compare";
    case InstructionCategory::kShift: return "shift";
    case InstructionCategory::kShiftDouble: return "shift_double";
    case InstructionCategory::kBitTest: return "bit_test";
    case InstructionCategory::kBitScan: return "bit_scan";
    case InstructionCategory::kMulInteger: return "mul_integer";
    case InstructionCategory::kDivInteger: return "div_integer";
    case InstructionCategory::kConditionalMove: return "conditional_move";
    case InstructionCategory::kSetcc: return "setcc";
    case InstructionCategory::kPush: return "push";
    case InstructionCategory::kPop: return "pop";
    case InstructionCategory::kSignExtend: return "sign_extend";
    case InstructionCategory::kNop: return "nop";
    case InstructionCategory::kExchange: return "exchange";
    case InstructionCategory::kVecMove: return "vec_move";
    case InstructionCategory::kVecFpAdd: return "vec_fp_add";
    case InstructionCategory::kVecFpMul: return "vec_fp_mul";
    case InstructionCategory::kVecFpDiv: return "vec_fp_div";
    case InstructionCategory::kVecFpSqrt: return "vec_fp_sqrt";
    case InstructionCategory::kVecFpCompare: return "vec_fp_compare";
    case InstructionCategory::kVecInt: return "vec_int";
    case InstructionCategory::kVecIntMul: return "vec_int_mul";
    case InstructionCategory::kVecShuffle: return "vec_shuffle";
    case InstructionCategory::kConvert: return "convert";
    case InstructionCategory::kString: return "string";
  }
  return "?";
}

const std::vector<OperandUsage>* InstructionSemantics::UsageForArity(
    std::size_t operand_count) const {
  for (const std::vector<OperandUsage>& usage : usage_by_arity) {
    if (usage.size() == operand_count) return &usage;
  }
  return nullptr;
}

namespace {

using Category = InstructionCategory;
using Usage = OperandUsage;

// Attribute bits of a table row.
enum RowAttr : unsigned {
  kRF = 1u << 0,    ///< Reads EFLAGS.
  kWF = 1u << 1,    ///< Writes EFLAGS.
  kStr = 1u << 2,   ///< String operation (REP makes RCX read-write).
  kMemR = 1u << 3,  ///< Implicit memory read (POP, MOVSB).
  kMemW = 1u << 4,  ///< Implicit memory write (PUSH, STOSB).
  kCC = 1u << 5,    ///< Condition-code family: each mnemonic is a stem
                    ///< expanded with the 30 condition suffixes.
  kImp1 = 1u << 6,  ///< Implicit registers apply to the unary form only.
};

constexpr unsigned kRWF = kRF | kWF;

/**
 * One declarative row of the instruction table. A row covers a *family*
 * of mnemonics sharing identical semantics:
 *
 *   - `mnemonics` is a space-separated mnemonic list; with the kCC
 *     attribute each entry is a stem ("CMOV") expanded with all 30
 *     condition-code suffixes, alias spellings included.
 *   - `family` is the display name used by the generated ISA reference
 *     (empty = each mnemonic is its own family).
 *   - `category` is the functional category — and thereby the latency
 *     class: src/uarch assigns uop decomposition, ports and latency per
 *     category, so a new row needs no per-uarch table change.
 *   - `signatures` encodes explicit-operand usage per supported arity:
 *     'R' read, 'W' write, 'X' read-write, '-' a zero-operand form,
 *     '/' separates arities ("X/XR" = unary {rw} and binary {rw, r}).
 *   - `implicit_reads` / `implicit_writes` are comma-separated canonical
 *     register names.
 *
 * Rows are constexpr-friendly plain data: the whole ISA surface is this
 * table, the loader below, and nothing else — the generated docs/ISA.md
 * renders from the same rows via src/asm/isa_doc.
 */
struct InstructionRow {
  const char* mnemonics;
  const char* family;
  Category category;
  const char* signatures;
  unsigned attrs;
  const char* implicit_reads;
  const char* implicit_writes;
};

constexpr InstructionRow kInstructionTable[] = {
    // ---- Data movement ----------------------------------------------------
    {"MOV", "", Category::kMove, "WR", 0, "", ""},
    {"MOVZX MOVSX MOVSXD", "widening move", Category::kMoveExtend, "WR", 0,
     "", ""},
    {"MOVBE", "", Category::kMove, "WR", 0, "", ""},
    {"MOVNTI", "", Category::kMove, "WR", 0, "", ""},
    {"LEA", "", Category::kLea, "WR", 0, "", ""},
    {"XCHG", "exchange", Category::kExchange, "XX", 0, "", ""},
    {"XADD", "exchange", Category::kExchange, "XX", kWF, "", ""},
    {"CMPXCHG", "exchange", Category::kExchange, "XR", kWF, "RAX", "RAX"},

    // ---- Stack ------------------------------------------------------------
    {"PUSH", "stack", Category::kPush, "R", kMemW, "RSP", "RSP"},
    {"POP", "stack", Category::kPop, "W", kMemR, "RSP", "RSP"},

    // ---- Integer ALU ------------------------------------------------------
    {"ADD SUB AND OR XOR", "integer ALU", Category::kAluSimple, "XR", kWF,
     "", ""},
    {"INC DEC NEG", "integer ALU", Category::kAluSimple, "X", kWF, "", ""},
    {"NOT", "integer ALU", Category::kAluSimple, "X", 0, "", ""},
    {"ADC SBB", "carry ALU", Category::kAluCarry, "XR", kRWF, "", ""},
    {"ADCX ADOX", "carry ALU", Category::kAluCarry, "XR", kRWF, "", ""},
    {"CMP TEST", "compare", Category::kAluCompare, "RR", kWF, "", ""},

    // ---- Shifts and bit manipulation ---------------------------------------
    {"SHL SAL SHR SAR ROL ROR", "shift/rotate", Category::kShift, "X/XR",
     kWF, "", ""},
    {"RCL RCR", "rotate through carry", Category::kShift, "X/XR", kRWF, "",
     ""},
    {"SHLD SHRD", "double shift", Category::kShiftDouble, "XRR", kWF, "",
     ""},
    {"BT", "bit test", Category::kBitTest, "RR", kWF, "", ""},
    {"BTS BTR BTC", "bit test", Category::kBitTest, "XR", kWF, "", ""},
    {"BSF BSR POPCNT LZCNT TZCNT", "bit scan", Category::kBitScan, "WR",
     kWF, "", ""},
    {"BSWAP", "", Category::kBitScan, "X", 0, "", ""},

    // ---- Integer multiplication and division -------------------------------
    {"MUL", "integer multiply", Category::kMulInteger, "R", kWF, "RAX",
     "RAX,RDX"},
    // IMUL has one-, two- and three-operand forms; the implicit
    // accumulator applies only to the one-operand form (kImp1).
    {"IMUL", "integer multiply", Category::kMulInteger, "R/XR/WRR",
     kWF | kImp1, "RAX", "RAX,RDX"},
    {"DIV IDIV", "integer divide", Category::kDivInteger, "R", kWF,
     "RAX,RDX", "RAX,RDX"},

    // ---- Conditional data movement ------------------------------------------
    {"CMOV", "CMOVcc", Category::kConditionalMove, "XR", kRF | kCC, "", ""},
    {"SET", "SETcc", Category::kSetcc, "W", kRF | kCC, "", ""},

    // ---- Accumulator sign extension -----------------------------------------
    {"CDQ CQO", "sign extend", Category::kSignExtend, "-", 0, "RAX", "RDX"},
    {"CBW CWDE CDQE", "sign extend", Category::kSignExtend, "-", 0, "RAX",
     "RAX"},

    {"NOP", "", Category::kNop, "-/R", 0, "", ""},

    // ---- Vector / floating point moves --------------------------------------
    {"MOVAPS MOVUPS MOVAPD MOVUPD MOVDQA MOVDQU MOVSS MOVSD MOVQ MOVD",
     "vector move", Category::kVecMove, "WR", 0, "", ""},
    {"MOVLPS MOVHPS MOVLPD MOVHPD", "vector partial move",
     Category::kVecMove, "XR", 0, "", ""},
    {"MOVDDUP MOVSHDUP MOVSLDUP LDDQU", "vector move", Category::kVecMove,
     "WR", 0, "", ""},
    {"MOVNTPS MOVNTPD MOVNTDQ", "vector non-temporal store",
     Category::kVecMove, "WR", 0, "", ""},
    {"MOVMSKPS MOVMSKPD PMOVMSKB", "mask extract", Category::kVecMove,
     "WR", 0, "", ""},

    // ---- Floating-point arithmetic ------------------------------------------
    {"ADDPS ADDPD ADDSS ADDSD SUBPS SUBPD SUBSS SUBSD MINSS MINSD MAXSS "
     "MAXSD",
     "FP add/sub/min/max", Category::kVecFpAdd, "XR", 0, "", ""},
    {"MINPS MINPD MAXPS MAXPD", "FP add/sub/min/max", Category::kVecFpAdd,
     "XR", 0, "", ""},
    {"HADDPS HADDPD HSUBPS HSUBPD ADDSUBPS ADDSUBPD", "FP horizontal",
     Category::kVecFpAdd, "XR", 0, "", ""},
    {"MULPS MULPD MULSS MULSD", "FP multiply", Category::kVecFpMul, "XR", 0,
     "", ""},
    {"RCPPS RCPSS RSQRTPS RSQRTSS", "FP approximate",
     Category::kVecFpMul, "WR", 0, "", ""},
    {"DIVPS DIVPD DIVSS DIVSD", "FP divide", Category::kVecFpDiv, "XR", 0,
     "", ""},
    {"SQRTPS SQRTPD SQRTSS SQRTSD", "FP square root", Category::kVecFpSqrt,
     "WR", 0, "", ""},
    {"UCOMISS UCOMISD COMISS COMISD", "FP compare to EFLAGS",
     Category::kVecFpCompare, "RR", kWF, "", ""},
    // The SSE compare family writes a lane mask, not EFLAGS. "CMPSD"
    // collides with the string compare; the SSE form owns the name (the
    // string form is not modeled), matching the MOVSD convention below.
    {"CMPPS CMPPD CMPSS CMPSD", "FP compare to mask",
     Category::kVecFpCompare, "XRR", 0, "", ""},
    {"PTEST", "", Category::kVecFpCompare, "RR", kWF, "", ""},

    // ---- Packed integer arithmetic ------------------------------------------
    {"PADDB PADDW PADDD PADDQ PSUBB PSUBW PSUBD PSUBQ PAND POR PXOR PANDN "
     "PCMPEQB PCMPEQD PCMPGTD PMINSD PMAXSD",
     "packed int ALU", Category::kVecInt, "XR", 0, "", ""},
    {"PADDSB PADDSW PADDUSB PADDUSW PSUBSB PSUBSW PSUBUSB PSUBUSW",
     "packed int saturating", Category::kVecInt, "XR", 0, "", ""},
    {"PCMPEQW PCMPEQQ PCMPGTB PCMPGTW PCMPGTQ", "packed int compare",
     Category::kVecInt, "XR", 0, "", ""},
    {"PMINSB PMINSW PMINUB PMINUW PMINUD PMAXSB PMAXSW PMAXUB PMAXUW "
     "PMAXUD",
     "packed int min/max", Category::kVecInt, "XR", 0, "", ""},
    {"PAVGB PAVGW", "packed int average", Category::kVecInt, "XR", 0, "",
     ""},
    {"PABSB PABSW PABSD", "packed int absolute", Category::kVecInt, "WR", 0,
     "", ""},
    {"PSLLD PSRLD PSLLQ PSRLQ PSLLW PSRLW PSRAW PSRAD PSLLDQ PSRLDQ",
     "packed int shift", Category::kVecInt, "XR", 0, "", ""},
    {"XORPS XORPD ANDPS ANDPD ANDNPS ANDNPD ORPS ORPD", "FP bitwise",
     Category::kVecInt, "XR", 0, "", ""},
    {"PMULLD PMULLW PMULUDQ", "packed int multiply", Category::kVecIntMul,
     "XR", 0, "", ""},
    {"PMULHW PMULHUW PMULDQ PMADDWD PSADBW", "packed int multiply",
     Category::kVecIntMul, "XR", 0, "", ""},

    // ---- Shuffles, packs, inserts and extracts ------------------------------
    {"PSHUFD", "", Category::kVecShuffle, "WRR", 0, "", ""},
    {"PSHUFLW PSHUFHW", "packed shuffle", Category::kVecShuffle, "WRR", 0,
     "", ""},
    {"PSHUFB", "", Category::kVecShuffle, "XR", 0, "", ""},
    {"PALIGNR", "", Category::kVecShuffle, "XRR", 0, "", ""},
    {"SHUFPS", "", Category::kVecShuffle, "XRR", 0, "", ""},
    {"SHUFPD", "", Category::kVecShuffle, "XRR", 0, "", ""},
    {"UNPCKLPS", "FP unpack", Category::kVecShuffle, "XR", 0, "", ""},
    {"UNPCKHPS UNPCKLPD UNPCKHPD", "FP unpack", Category::kVecShuffle,
     "XR", 0, "", ""},
    {"PUNPCKLBW PUNPCKLWD PUNPCKLDQ PUNPCKLQDQ PUNPCKHBW PUNPCKHWD "
     "PUNPCKHDQ PUNPCKHQDQ",
     "packed unpack", Category::kVecShuffle, "XR", 0, "", ""},
    {"PACKSSWB PACKSSDW PACKUSWB PACKUSDW", "packed pack",
     Category::kVecShuffle, "XR", 0, "", ""},
    {"BLENDPS BLENDPD PBLENDW", "blend", Category::kVecShuffle, "XRR", 0,
     "", ""},
    {"PEXTRB PEXTRW PEXTRD PEXTRQ", "lane extract", Category::kVecShuffle,
     "WRR", 0, "", ""},
    {"PINSRB PINSRW PINSRD PINSRQ", "lane insert", Category::kVecShuffle,
     "XRR", 0, "", ""},

    // ---- Conversions --------------------------------------------------------
    {"CVTSI2SD CVTSI2SS CVTSD2SI CVTSS2SI CVTTSD2SI CVTTSS2SI CVTSD2SS "
     "CVTSS2SD",
     "scalar convert", Category::kConvert, "WR", 0, "", ""},
    {"CVTDQ2PS CVTPS2DQ CVTTPS2DQ CVTDQ2PD CVTPD2DQ CVTTPD2DQ CVTPS2PD "
     "CVTPD2PS",
     "packed convert", Category::kConvert, "WR", 0, "", ""},
    {"ROUNDPS ROUNDPD ROUNDSS ROUNDSD", "FP round", Category::kConvert,
     "WRR", 0, "", ""},

    // ---- AVX (VEX-encoded, non-destructive three-operand forms) -------------
    {"VMOVAPS VMOVUPS VMOVAPD VMOVUPD VMOVDQA VMOVDQU", "vector move",
     Category::kVecMove, "WR", 0, "", ""},
    {"VMOVSS VMOVSD", "vector move", Category::kVecMove, "WR/WRR", 0, "",
     ""},
    {"VMOVQ VMOVD", "vector move", Category::kVecMove, "WR", 0, "", ""},
    {"VBROADCASTSS VBROADCASTSD VPBROADCASTB VPBROADCASTW VPBROADCASTD "
     "VPBROADCASTQ",
     "broadcast", Category::kVecMove, "WR", 0, "", ""},
    {"VADDPS VADDPD VADDSS VADDSD VSUBPS VSUBPD VSUBSS VSUBSD VMINPS "
     "VMINPD VMAXPS VMAXPD",
     "FP add/sub/min/max", Category::kVecFpAdd, "WRR", 0, "", ""},
    {"VMINSS VMINSD VMAXSS VMAXSD", "FP add/sub/min/max",
     Category::kVecFpAdd, "WRR", 0, "", ""},
    {"VMULPS VMULPD VMULSS VMULSD", "FP multiply", Category::kVecFpMul,
     "WRR", 0, "", ""},
    // Fused multiply-add accumulates into the destination.
    {"VFMADD231PS VFMADD231PD VFMADD231SS VFMADD231SD VFMADD132PD "
     "VFMADD213PD",
     "FMA", Category::kVecFpMul, "XRR", 0, "", ""},
    {"VFMADD132PS VFMADD213PS VFMADD132SS VFMADD213SS VFMADD132SD "
     "VFMADD213SD VFNMADD231PS VFNMADD231PD VFMSUB231PS VFMSUB231PD",
     "FMA", Category::kVecFpMul, "XRR", 0, "", ""},
    {"VDIVPS VDIVPD VDIVSS VDIVSD", "FP divide", Category::kVecFpDiv,
     "WRR", 0, "", ""},
    {"VSQRTPS VSQRTPD VSQRTSS VSQRTSD", "FP square root",
     Category::kVecFpSqrt, "WR/WRR", 0, "", ""},
    {"VUCOMISS VUCOMISD", "FP compare to EFLAGS", Category::kVecFpCompare,
     "RR", kWF, "", ""},
    {"VPADDB VPADDW VPADDD VPADDQ VPSUBD VPSUBQ VPAND VPOR VPXOR VPANDN "
     "VPCMPEQD VPCMPGTD VXORPS VXORPD VANDPS VANDPD VORPS",
     "packed int ALU", Category::kVecInt, "WRR", 0, "", ""},
    {"VPSUBB VPSUBW VPCMPEQB VPCMPEQW VPCMPEQQ VPCMPGTB VPCMPGTW VPCMPGTQ "
     "VPMINSD VPMAXSD VPMINUD VPMAXUD VANDNPS VANDNPD VORPD",
     "packed int ALU", Category::kVecInt, "WRR", 0, "", ""},
    {"VPSLLD VPSRLD VPSLLQ VPSRLQ VPSLLW VPSRLW VPSRAD VPSRAW",
     "packed int shift", Category::kVecInt, "WRR", 0, "", ""},
    {"VPMULLD", "packed int multiply", Category::kVecIntMul, "WRR", 0, "",
     ""},
    {"VPMULLW VPMULUDQ VPMULDQ VPMADDWD", "packed int multiply",
     Category::kVecIntMul, "WRR", 0, "", ""},
    {"VPSHUFD", "", Category::kVecShuffle, "WRR", 0, "", ""},
    {"VPSHUFB VPERMILPS VPERMILPD", "packed shuffle",
     Category::kVecShuffle, "WRR", 0, "", ""},
    {"VINSERTF128 VINSERTI128 VPERM2F128 VPERM2I128", "lane permute",
     Category::kVecShuffle, "WRRR", 0, "", ""},
    {"VEXTRACTF128 VEXTRACTI128", "lane extract", Category::kVecShuffle,
     "WRR", 0, "", ""},
    {"VCVTSI2SD VCVTSI2SS", "scalar convert", Category::kConvert, "WRR", 0,
     "", ""},
    {"VCVTSD2SI VCVTSS2SI VCVTTSD2SI VCVTTSS2SI", "scalar convert",
     Category::kConvert, "WR", 0, "", ""},
    {"VZEROUPPER", "", Category::kNop, "-", 0, "", ""},

    // ---- BMI / BMI2 ---------------------------------------------------------
    {"ANDN BZHI", "BMI ALU", Category::kAluSimple, "WRR", kWF, "", ""},
    {"PDEP PEXT", "BMI deposit/extract", Category::kMulInteger, "WRR", 0,
     "", ""},
    // MULX writes two destinations and implicitly reads RDX; it does not
    // touch EFLAGS (its reason for existing).
    {"MULX", "", Category::kMulInteger, "WWR", 0, "RDX", ""},
    {"RORX SARX SHLX SHRX", "BMI shift", Category::kShift, "WRR", 0, "",
     ""},

    // ---- Explicit flag manipulation -----------------------------------------
    {"CLC STC", "flag set/clear", Category::kNop, "-", kWF, "", ""},
    {"CMC", "flag set/clear", Category::kNop, "-", kRWF, "", ""},
    {"LAHF", "flag load/store", Category::kMove, "-", kRF, "", "RAX"},
    {"SAHF", "flag load/store", Category::kMove, "-", kWF, "RAX", ""},

    // ---- String operations --------------------------------------------------
    // Note: "MOVSD" collides between the SSE move and the string move; the
    // string form is registered as MOVSQ/MOVSB/MOVSW only (the SSE form
    // owns "MOVSD"), matching common disassembler conventions where the
    // string form is rare in compiled basic blocks. MOVSD_STR is reserved
    // for explicit construction and never produced by the parser.
    {"MOVSB MOVSW MOVSD_STR MOVSQ", "string move", Category::kString, "-",
     kStr | kMemR | kMemW, "RSI,RDI", "RSI,RDI"},
    {"STOSB STOSW STOSD STOSQ", "string store", Category::kString, "-",
     kStr | kMemW, "RAX,RDI", "RDI"},
};

// The 30 condition-code suffixes a kCC stem expands to. Includes the
// alias spellings real disassemblers emit for the same condition codes
// (SETNZ == SETNE, CMOVC == CMOVB, SETPE == SETP, ...) so objdump/llvm-mc
// output is not dropped as unknown mnemonics.
constexpr const char* kConditionCodes[] = {
    "E",  "NE", "L",  "LE",  "G",  "GE",  "A",  "AE",  "B",  "BE",
    "S",  "NS", "Z",  "NZ",  "C",  "NC",  "O",  "NO",  "P",  "NP",
    "PE", "PO", "NA", "NAE", "NB", "NBE", "NG", "NGE", "NL", "NLE"};

/** Decodes a row's signature string into per-arity usage vectors. */
std::vector<std::vector<Usage>> ParseSignatures(const char* signatures) {
  std::vector<std::vector<Usage>> result;
  for (const std::string_view arity : Split(signatures, '/')) {
    std::vector<Usage> usage;
    if (arity != "-") {
      usage.reserve(arity.size());
      for (const char c : arity) {
        switch (c) {
          case 'R': usage.push_back(Usage::kRead); break;
          case 'W': usage.push_back(Usage::kWrite); break;
          case 'X': usage.push_back(Usage::kReadWrite); break;
          default:
            GRANITE_CHECK_MSG(false, "bad signature character '"
                                         << c << "' in " << signatures);
        }
      }
    }
    result.push_back(std::move(usage));
  }
  return result;
}

/** Resolves a comma-separated canonical register name list. */
std::vector<Register> ParseRegisterList(const char* names) {
  std::vector<Register> registers;
  for (const std::string_view name : SplitAndStrip(names, ',')) {
    registers.push_back(RegisterByName(name));
  }
  return registers;
}

/** Expands every table row into catalog entries. */
std::vector<InstructionSemantics> BuildCatalog() {
  std::vector<InstructionSemantics> entries;
  for (const InstructionRow& row : kInstructionTable) {
    const std::vector<std::vector<Usage>> usage =
        ParseSignatures(row.signatures);
    const std::vector<Register> implicit_reads =
        ParseRegisterList(row.implicit_reads);
    const std::vector<Register> implicit_writes =
        ParseRegisterList(row.implicit_writes);
    const auto emit = [&](const std::string& mnemonic,
                          const std::string& family) {
      InstructionSemantics entry;
      entry.mnemonic = mnemonic;
      entry.family = family.empty() ? mnemonic : family;
      entry.category = row.category;
      entry.usage_by_arity = usage;
      entry.reads_flags = (row.attrs & kRF) != 0;
      entry.writes_flags = (row.attrs & kWF) != 0;
      entry.implicit_reads = implicit_reads;
      entry.implicit_writes = implicit_writes;
      entry.is_string_op = (row.attrs & kStr) != 0;
      entry.implicit_memory_read = (row.attrs & kMemR) != 0;
      entry.implicit_memory_write = (row.attrs & kMemW) != 0;
      entry.implicit_operands_unary_only = (row.attrs & kImp1) != 0;
      entries.push_back(std::move(entry));
    };
    for (const std::string_view mnemonic : SplitAndStrip(row.mnemonics, ' ')) {
      if ((row.attrs & kCC) != 0) {
        for (const char* condition : kConditionCodes) {
          emit(std::string(mnemonic) + condition, row.family);
        }
      } else {
        emit(std::string(mnemonic), row.family);
      }
    }
  }
  return entries;
}

}  // namespace

SemanticsCatalog::SemanticsCatalog() : entries_(BuildCatalog()) {
  index_.reserve(entries_.size());
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    entries_[i].id = static_cast<int>(i);
    const bool inserted = index_.emplace(entries_[i].mnemonic, i).second;
    GRANITE_CHECK_MSG(inserted,
                      "duplicate mnemonic: " << entries_[i].mnemonic);
  }
}

const SemanticsCatalog& SemanticsCatalog::Get() {
  static const SemanticsCatalog* const catalog = new SemanticsCatalog();
  return *catalog;
}

const InstructionSemantics* SemanticsCatalog::Find(
    std::string_view mnemonic) const {
  auto it = index_.find(mnemonic);
  if (it == index_.end()) it = index_.find(ToUpper(mnemonic));
  return it == index_.end() ? nullptr : &entries_[it->second];
}

const InstructionSemantics& SemanticsCatalog::Require(
    std::string_view mnemonic) const {
  const InstructionSemantics* entry = Find(mnemonic);
  GRANITE_CHECK_MSG(entry != nullptr, "unknown mnemonic: " << mnemonic);
  return *entry;
}

std::vector<std::string> SemanticsCatalog::Mnemonics() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const InstructionSemantics& entry : entries_) {
    names.push_back(entry.mnemonic);
  }
  std::sort(names.begin(), names.end());
  return names;
}

const std::vector<OperandUsage>& OperandUsageFor(
    const InstructionSemantics& semantics, const Instruction& instruction) {
  const std::vector<OperandUsage>* usage =
      semantics.UsageForArity(instruction.operands.size());
  GRANITE_CHECK_MSG(usage != nullptr,
                    "unsupported arity " << instruction.operands.size()
                                         << " for " << instruction.mnemonic);
  return *usage;
}

const std::vector<OperandUsage>& OperandUsageFor(
    const Instruction& instruction) {
  return OperandUsageFor(
      SemanticsCatalog::Get().Require(instruction.mnemonic), instruction);
}

namespace {

bool Contains(const std::vector<Register>& list, Register reg) {
  return std::find(list.begin(), list.end(), reg) != list.end();
}

void AddCanonical(std::vector<Register>& list, Register reg) {
  const Register canonical = CanonicalRegister(reg);
  if (!Contains(list, canonical)) list.push_back(canonical);
}

void AddAddressReads(std::vector<Register>& reads,
                     const MemoryReference& reference) {
  for (const Register reg :
       {reference.base, reference.index, reference.segment}) {
    if (reg != kInvalidRegister) AddCanonical(reads, reg);
  }
}

}  // namespace

bool DataFlow::ReadsRegister(Register canonical) const {
  return Contains(register_reads, canonical) ||
         Contains(address_reads, canonical);
}

bool DataFlow::WritesRegister(Register canonical) const {
  return Contains(register_writes, canonical);
}

DataFlow DataFlowFor(const Instruction& instruction) {
  DataFlow flow;
  DataFlowFor(instruction, &flow);
  return flow;
}

void DataFlowFor(const Instruction& instruction, DataFlow* out) {
  DataFlow& flow = *out;
  flow.register_reads.clear();
  flow.address_reads.clear();
  flow.register_writes.clear();
  flow.memory_reads.clear();
  flow.memory_writes.clear();
  flow.semantics = &SemanticsCatalog::Get().Require(instruction.mnemonic);
  const InstructionSemantics& semantics = *flow.semantics;
  const std::vector<OperandUsage>& usage =
      OperandUsageFor(semantics, instruction);

  for (std::size_t i = 0; i < instruction.operands.size(); ++i) {
    const Operand& operand = instruction.operands[i];
    const bool is_read = usage[i] != OperandUsage::kWrite;
    const bool is_write = usage[i] != OperandUsage::kRead;
    switch (operand.kind()) {
      case OperandKind::kRegister:
        if (is_read) AddCanonical(flow.register_reads, operand.reg());
        if (is_write) AddCanonical(flow.register_writes, operand.reg());
        break;
      case OperandKind::kMemory: {
        AddAddressReads(flow.address_reads, operand.mem());
        const MemoryAccess access{operand.mem(), operand.width_bits(),
                                  /*unknown=*/false};
        if (is_read) flow.memory_reads.push_back(access);
        if (is_write) flow.memory_writes.push_back(access);
        break;
      }
      case OperandKind::kAddress:
        AddAddressReads(flow.address_reads, operand.mem());
        break;
      case OperandKind::kImmediate:
      case OperandKind::kFpImmediate:
        break;
    }
  }

  if (ImplicitOperandsApply(semantics, instruction.operands.size())) {
    for (const Register reg : semantics.implicit_reads) {
      AddCanonical(flow.register_reads, reg);
    }
    for (const Register reg : semantics.implicit_writes) {
      AddCanonical(flow.register_writes, reg);
    }
  }
  if (semantics.reads_flags) {
    AddCanonical(flow.register_reads, FlagsRegister());
  }
  if (semantics.writes_flags) {
    AddCanonical(flow.register_writes, FlagsRegister());
  }
  if (semantics.implicit_memory_read) {
    flow.memory_reads.push_back(MemoryAccess{{}, 64, /*unknown=*/true});
  }
  if (semantics.implicit_memory_write) {
    flow.memory_writes.push_back(MemoryAccess{{}, 64, /*unknown=*/true});
  }
  // A REP prefix turns a string operation into a loop counted in RCX.
  if (semantics.is_string_op && instruction.HasRepPrefix()) {
    const Register rcx = RegisterByName("RCX");
    AddCanonical(flow.register_reads, rcx);
    AddCanonical(flow.register_writes, rcx);
  }
}

bool ImplicitOperandsApply(const InstructionSemantics& semantics,
                           std::size_t operand_count) {
  return !(semantics.implicit_operands_unary_only && operand_count >= 2);
}

namespace {

/** Why the catalog cannot encode `instruction`, or nullopt. A written
 * slot must hold a register or memory: the graph builder has no value
 * node to write for any other operand kind. `slot` receives the first
 * slot refused with kOperandForm. */
std::optional<UnencodableReason> EncodabilityOf(
    const Instruction& instruction, std::size_t* slot = nullptr) {
  const InstructionSemantics* semantics =
      SemanticsCatalog::Get().Find(instruction.mnemonic);
  if (semantics == nullptr) return UnencodableReason::kUnknownMnemonic;
  const std::vector<OperandUsage>* usage =
      semantics->UsageForArity(instruction.operands.size());
  if (usage == nullptr) return UnencodableReason::kUnsupportedArity;
  for (std::size_t i = 0; i < usage->size(); ++i) {
    const OperandKind kind = instruction.operands[i].kind();
    if ((*usage)[i] != OperandUsage::kRead &&
        kind != OperandKind::kRegister && kind != OperandKind::kMemory) {
      if (slot != nullptr) *slot = i;
      return UnencodableReason::kOperandForm;
    }
  }
  return std::nullopt;
}

/** "an immediate" and so on: the refused kind of a written slot. */
const char* WrittenKindPhrase(OperandKind kind) {
  switch (kind) {
    case OperandKind::kImmediate: return "an immediate";
    case OperandKind::kFpImmediate: return "a floating-point immediate";
    case OperandKind::kAddress: return "an address";
    case OperandKind::kRegister:
    case OperandKind::kMemory: break;
  }
  return "?";
}

}  // namespace

bool IsSupportedInstruction(const Instruction& instruction) {
  return !EncodabilityOf(instruction).has_value();
}

std::optional<Unencodable> CheckEncodable(const BasicBlock& block) {
  for (const Instruction& instruction : block.instructions) {
    std::size_t slot = 0;
    const std::optional<UnencodableReason> reason =
        EncodabilityOf(instruction, &slot);
    if (!reason.has_value()) continue;
    switch (*reason) {
      case UnencodableReason::kUnknownMnemonic:
        return Unencodable{*reason, std::string("unknown mnemonic ")
                                        .append(instruction.mnemonic)};
      case UnencodableReason::kUnsupportedArity:
        return Unencodable{*reason,
                           instruction.mnemonic + " with " +
                               std::to_string(instruction.operands.size()) +
                               " operands"};
      case UnencodableReason::kOperandForm:
        return Unencodable{
            *reason,
            instruction.mnemonic + " operand " + std::to_string(slot) +
                " is written but is " +
                WrittenKindPhrase(instruction.operands[slot].kind())};
    }
  }
  return std::nullopt;
}

}  // namespace granite::assembly
