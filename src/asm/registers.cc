#include "asm/registers.h"

#include <unordered_map>

#include "base/logging.h"
#include "base/string_util.h"

namespace granite::assembly {
namespace {

/** Longest register name ("EFLAGS"); LookupRegister upper-cases into a
 * stack buffer this long, and no longer text can name a register. */
constexpr std::size_t kMaxRegisterNameLength = 6;

/** Mutable builder state for the singleton register table. */
struct TableData {
  std::vector<RegisterInfo> table;
  /** Keyed by views of the names in `table`, filled once it is final. */
  std::unordered_map<std::string_view, Register> by_name;
  std::vector<Register> canonical_gp;
  std::vector<Register> canonical_vector;
  Register flags = kInvalidRegister;

  Register AddRegister(const std::string& name, Register canonical,
                       int width_bits, RegisterClass reg_class) {
    const Register id = static_cast<Register>(table.size());
    const Register canonical_id = canonical == kInvalidRegister ? id
                                                                : canonical;
    GRANITE_CHECK(name.size() <= kMaxRegisterNameLength);
    table.push_back(RegisterInfo{name, canonical_id, width_bits, reg_class});
    return id;
  }
};

TableData BuildTable() {
  TableData data;

  // Legacy general-purpose registers. Sub-register names are listed in
  // width order 64/32/16/8-low; the A/B/C/D registers also have an 8-high
  // alias.
  struct GpSpec {
    const char* names[4];  // 64, 32, 16, 8-bit low names.
    const char* high8;     // 8-bit high name or nullptr.
  };
  constexpr GpSpec kLegacyGp[] = {
      {{"RAX", "EAX", "AX", "AL"}, "AH"},
      {{"RBX", "EBX", "BX", "BL"}, "BH"},
      {{"RCX", "ECX", "CX", "CL"}, "CH"},
      {{"RDX", "EDX", "DX", "DL"}, "DH"},
      {{"RSI", "ESI", "SI", "SIL"}, nullptr},
      {{"RDI", "EDI", "DI", "DIL"}, nullptr},
      {{"RBP", "EBP", "BP", "BPL"}, nullptr},
      {{"RSP", "ESP", "SP", "SPL"}, nullptr},
  };
  constexpr int kWidths[4] = {64, 32, 16, 8};
  for (const GpSpec& spec : kLegacyGp) {
    Register canonical = kInvalidRegister;
    for (int w = 0; w < 4; ++w) {
      const Register id = data.AddRegister(spec.names[w], canonical,
                                           kWidths[w],
                                           RegisterClass::kGeneralPurpose);
      if (w == 0) {
        canonical = id;
        data.canonical_gp.push_back(id);
      }
    }
    if (spec.high8 != nullptr) {
      data.AddRegister(spec.high8, canonical, 8,
                       RegisterClass::kGeneralPurpose);
    }
  }

  // R8-R15 with D/W/B sub-registers.
  for (int n = 8; n <= 15; ++n) {
    const std::string base = std::string("R").append(std::to_string(n));
    const Register canonical =
        data.AddRegister(base, kInvalidRegister, 64,
                         RegisterClass::kGeneralPurpose);
    data.canonical_gp.push_back(canonical);
    data.AddRegister(base + "D", canonical, 32,
                     RegisterClass::kGeneralPurpose);
    data.AddRegister(base + "W", canonical, 16,
                     RegisterClass::kGeneralPurpose);
    data.AddRegister(base + "B", canonical, 8,
                     RegisterClass::kGeneralPurpose);
  }

  // Vector registers: XMM is canonical, YMM aliases it.
  for (int n = 0; n <= 15; ++n) {
    const Register canonical =
        data.AddRegister("XMM" + std::to_string(n), kInvalidRegister, 128,
                         RegisterClass::kVector);
    data.canonical_vector.push_back(canonical);
    data.AddRegister("YMM" + std::to_string(n), canonical, 256,
                     RegisterClass::kVector);
  }

  // EFLAGS is modeled as a single value; individual condition bits are not
  // tracked separately (matching the paper's Figure 1, which shows one
  // EFLAGS node).
  data.flags = data.AddRegister("EFLAGS", kInvalidRegister, 64,
                                RegisterClass::kFlags);

  data.AddRegister("RIP", kInvalidRegister, 64,
                   RegisterClass::kInstructionPointer);

  for (const char* name : {"CS", "DS", "ES", "FS", "GS", "SS"}) {
    data.AddRegister(name, kInvalidRegister, 16, RegisterClass::kSegment);
  }

  return data;
}

const TableData& GetTableData() {
  static const TableData* const data = [] {
    auto* built = new TableData(BuildTable());
    for (Register id = 0; id < static_cast<Register>(built->table.size());
         ++id) {
      built->by_name.emplace(built->table[id].name, id);
    }
    return built;
  }();
  return *data;
}

}  // namespace

const std::vector<RegisterInfo>& RegisterTable() {
  return GetTableData().table;
}

std::optional<Register> LookupRegister(std::string_view name) {
  if (name.size() > kMaxRegisterNameLength) return std::nullopt;
  char upper[kMaxRegisterNameLength];
  for (std::size_t i = 0; i < name.size(); ++i) {
    upper[i] = AsciiToUpper(name[i]);
  }
  const auto& by_name = GetTableData().by_name;
  const auto it = by_name.find(std::string_view(upper, name.size()));
  if (it == by_name.end()) return std::nullopt;
  return it->second;
}

Register RegisterByName(std::string_view name) {
  const std::optional<Register> reg = LookupRegister(name);
  GRANITE_CHECK_MSG(reg.has_value(), "unknown register: " << name);
  return *reg;
}

const RegisterInfo& GetRegisterInfo(Register reg) {
  const auto& table = GetTableData().table;
  GRANITE_CHECK(reg >= 0 && reg < static_cast<Register>(table.size()));
  return table[reg];
}

Register CanonicalRegister(Register reg) {
  return GetRegisterInfo(reg).canonical;
}

const std::string& RegisterName(Register reg) {
  return GetRegisterInfo(reg).name;
}

bool IsRegisterClass(Register reg, RegisterClass reg_class) {
  return GetRegisterInfo(reg).reg_class == reg_class;
}

Register FlagsRegister() { return GetTableData().flags; }

const std::vector<Register>& CanonicalGpRegisters() {
  return GetTableData().canonical_gp;
}

const std::vector<Register>& CanonicalVectorRegisters() {
  return GetTableData().canonical_vector;
}

Register SubRegister(Register canonical, int width_bits) {
  const auto& table = GetTableData().table;
  GRANITE_CHECK(canonical >= 0 &&
                canonical < static_cast<Register>(table.size()));
  // The table lists sub-registers from widest to narrowest with the
  // low-byte form before the high-byte form, so the first match is the
  // conventional alias.
  for (Register reg = 0; reg < static_cast<Register>(table.size()); ++reg) {
    if (table[reg].canonical == canonical &&
        table[reg].width_bits == width_bits) {
      return reg;
    }
  }
  GRANITE_PANIC("no " << width_bits << "-bit alias of "
                      << table[canonical].name);
}

}  // namespace granite::assembly
