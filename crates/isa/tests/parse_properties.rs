//! Property tests for the text assembler and sparse memory.
//!
//! Every instruction the builder can produce must round-trip through
//! `Display` → `assemble`. `Memory` must be indistinguishable from a flat
//! byte map through both of its access paths (the page-local word path
//! and the page-chunked byte path), at addresses drawn where they
//! diverge: inside a page, straddling a page boundary, and wrapping
//! around `u64::MAX`. `content_hash` must depend only on the final
//! contents, never on the order, width or residency of the writes that
//! produced them.

use mg_isa::{assemble, reg, Inst, Memory, Opcode, Operand};
use proptest::prelude::*;
use std::collections::HashMap;

fn operate_opcode() -> impl Strategy<Value = Opcode> {
    prop::sample::select(vec![
        Opcode::Addl,
        Opcode::Addq,
        Opcode::Subl,
        Opcode::Subq,
        Opcode::S4addl,
        Opcode::S8addq,
        Opcode::Lda,
        Opcode::Mull,
        Opcode::And,
        Opcode::Bis,
        Opcode::Xor,
        Opcode::Bic,
        Opcode::Ornot,
        Opcode::Eqv,
        Opcode::Sll,
        Opcode::Srl,
        Opcode::Sra,
        Opcode::Cmpeq,
        Opcode::Cmplt,
        Opcode::Cmpule,
        Opcode::Zapnot,
        Opcode::Extbl,
        Opcode::Sextb,
        Opcode::Sextw,
    ])
}

fn mem_opcode() -> impl Strategy<Value = (Opcode, bool)> {
    prop::sample::select(vec![
        (Opcode::Ldq, false),
        (Opcode::Ldl, false),
        (Opcode::Ldwu, false),
        (Opcode::Ldbu, false),
        (Opcode::Stq, true),
        (Opcode::Stl, true),
        (Opcode::Stw, true),
        (Opcode::Stb, true),
    ])
}

fn arb_inst() -> impl Strategy<Value = Inst> {
    prop_oneof![
        (operate_opcode(), 0u8..32, 0u8..32, 0u8..32, any::<bool>(), -500i64..500).prop_map(
            |(op, a, b, c, use_imm, imm)| {
                let rb: Operand =
                    if use_imm { Operand::Imm(imm) } else { Operand::Reg(reg(b)) };
                Inst::op3(op, reg(a), rb, reg(c))
            }
        ),
        (mem_opcode(), 0u8..32, 0u8..32, -512i64..512).prop_map(|((op, store), x, base, d)| {
            if store {
                Inst::store(op, reg(x), d, reg(base))
            } else {
                Inst::load(op, reg(x), d, reg(base))
            }
        }),
        (0u8..32, 0i64..1000).prop_map(|(a, t)| Inst::branch(Opcode::Bne, reg(a), t)),
        (0u8..32, 0u8..32, 0u8..32, 0u32..2048)
            .prop_map(|(a, b, c, id)| { Inst::handle(reg(a), reg(b), reg(c), id, None) }),
        Just(Inst::nop()),
        Just(Inst::halt()),
    ]
}

const PAGE: u64 = 4096;

/// Addresses where the access paths diverge.
fn addr() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..0x3000,
        // Straddling (or just inside) a page boundary.
        (1u64..4, 0u64..16).prop_map(|(p, d)| p * PAGE - 8 + d),
        // Wrapping at the top of the address space.
        (0u64..16).prop_map(|d| u64::MAX - d),
    ]
}

fn width() -> impl Strategy<Value = u8> {
    prop::sample::select(vec![1u8, 2, 4, 8])
}

/// The reference model: a flat byte map; absent bytes read zero.
#[derive(Default)]
struct Model(HashMap<u64, u8>);

impl Model {
    fn write(&mut self, addr: u64, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            self.0.insert(addr.wrapping_add(i as u64), b);
        }
    }

    fn read(&self, addr: u64, n: usize) -> Vec<u8> {
        (0..n).map(|i| self.0.get(&addr.wrapping_add(i as u64)).copied().unwrap_or(0)).collect()
    }
}

fn read_width(mem: &Memory, addr: u64, width: u8) -> u64 {
    match width {
        1 => mem.read_u8(addr) as u64,
        2 => mem.read_u16(addr) as u64,
        4 => mem.read_u32(addr) as u64,
        _ => mem.read_u64(addr),
    }
}

fn write_width(mem: &mut Memory, addr: u64, width: u8, v: u64) {
    match width {
        1 => mem.write_u8(addr, v as u8),
        2 => mem.write_u16(addr, v as u16),
        4 => mem.write_u32(addr, v as u32),
        _ => mem.write_u64(addr, v),
    }
}

fn le(bytes: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    b[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `Display` output re-assembles to the identical instruction.
    #[test]
    fn display_assemble_round_trip(inst in arb_inst()) {
        let text = inst.to_string();
        let prog = assemble(&text).map_err(|e| {
            TestCaseError::fail(format!("`{text}` failed to parse: {e}"))
        })?;
        prop_assert_eq!(prog.len(), 1);
        prop_assert_eq!(prog.insts[0], inst, "`{}` round-tripped differently", text);
    }

    /// Mixed 1/2/4/8-byte writes and reads (fixed-width, generic-width
    /// and bulk) agree with the byte map at every step.
    #[test]
    fn memory_matches_flat_map(
        ops in prop::collection::vec(
            (0u8..4, addr(), width(), any::<u64>(), 0usize..24),
            1..120,
        ),
    ) {
        let mut mem = Memory::new();
        let mut model = Model::default();
        for (kind, a, w, v, len) in ops {
            match kind {
                0 => {
                    write_width(&mut mem, a, w, v);
                    model.write(a, &v.to_le_bytes()[..w as usize]);
                }
                1 => {
                    mem.write_uint(a, w, v);
                    model.write(a, &v.to_le_bytes()[..w as usize]);
                }
                2 => {
                    let bytes: Vec<u8> = (0..len).map(|i| (v >> (i % 8 * 8)) as u8 ^ i as u8).collect();
                    mem.write_bytes(a, &bytes);
                    model.write(a, &bytes);
                }
                _ => {
                    let mut buf = vec![0xa5u8; len];
                    mem.read_bytes(a, &mut buf);
                    prop_assert_eq!(buf, model.read(a, len), "read_bytes({:#x}, {})", a, len);
                }
            }
            let want = le(&model.read(a, w as usize));
            prop_assert_eq!(read_width(&mem, a, w), want, "read {} bytes at {:#x}", w, a);
            prop_assert_eq!(mem.read_uint(a, w), want, "read_uint {} at {:#x}", w, a);
        }
        // Untouched memory reads zero; touched bytes read their value.
        for probe in [0x5000u64, 0x7_0000_0000, u64::MAX / 2] {
            prop_assert_eq!(mem.read_u64(probe), le(&model.read(probe, 8)));
        }
        for (&a, &b) in &model.0 {
            prop_assert_eq!(mem.read_u8(a), b);
        }
    }

    /// `content_hash` is a function of the final contents: replaying them
    /// byte by byte in reverse address order (plus a zero write to a page
    /// nothing else touches) hashes identically.
    #[test]
    fn content_hash_ignores_write_order(
        writes in prop::collection::vec((addr(), width(), any::<u64>()), 1..60),
    ) {
        let mut mem = Memory::new();
        let mut model = Model::default();
        for &(a, w, v) in &writes {
            write_width(&mut mem, a, w, v);
            model.write(a, &v.to_le_bytes()[..w as usize]);
        }
        let mut replay = Memory::new();
        replay.write_u64(0x9_0000, 0);
        let mut bytes: Vec<(u64, u8)> = model.0.iter().map(|(&a, &b)| (a, b)).collect();
        bytes.sort_unstable();
        for &(a, b) in bytes.iter().rev() {
            replay.write_u8(a, b);
        }
        prop_assert_eq!(mem.content_hash(), replay.content_hash());

        // And the contents do key the hash: change one written byte.
        let (a, b) = bytes[bytes.len() / 2];
        replay.write_u8(a, b ^ 0x10);
        prop_assert_ne!(mem.content_hash(), replay.content_hash());
    }
}
