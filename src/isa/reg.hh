/**
 * @file
 * Logical (architected) register identifiers.
 *
 * Mirrors the paper's Alpha-like setup: 32 integer and 32
 * floating-point architected registers, renamed onto separate
 * integer and FP physical register files (Table 1: "64 physical
 * register, 64 floating point register").
 */

#ifndef PRI_ISA_REG_HH
#define PRI_ISA_REG_HH

#include <cstdint>
#include <string>

namespace pri::isa
{

/** Register class: each class has its own map table and PRF. */
enum class RegClass : uint8_t
{
    Int = 0,
    Fp = 1,
};

constexpr size_t kNumRegClasses = 2;

/** Architected register count per class (Alpha-like). */
constexpr unsigned kNumLogicalRegs = 32;

/** A logical register: class + index. Invalid when idx == kInvalid. */
struct RegId
{
    static constexpr uint8_t kInvalid = 0xff;

    RegClass cls = RegClass::Int;
    uint8_t idx = kInvalid;

    constexpr bool valid() const { return idx != kInvalid; }

    constexpr bool
    operator==(const RegId &o) const
    {
        return cls == o.cls && idx == o.idx;
    }

    /** Flat index across both classes, for tables sized 2*32. */
    constexpr unsigned
    flat() const
    {
        return static_cast<unsigned>(cls) * kNumLogicalRegs + idx;
    }

    std::string
    str() const
    {
        if (!valid())
            return "-";
        std::string s = std::to_string(idx);
        s.insert(s.begin(), cls == RegClass::Int ? 'r' : 'f');
        return s;
    }
};

/** Convenience constructors. */
constexpr RegId
intReg(uint8_t idx)
{
    return RegId{RegClass::Int, idx};
}

constexpr RegId
fpReg(uint8_t idx)
{
    return RegId{RegClass::Fp, idx};
}

constexpr RegId
noReg()
{
    return RegId{};
}

/** Physical register index within one class's register file. */
using PhysRegId = uint16_t;
constexpr PhysRegId kInvalidPhysReg = 0xffff;

} // namespace pri::isa

#endif // PRI_ISA_REG_HH
