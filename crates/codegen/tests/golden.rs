//! Golden encoding fixtures.
//!
//! Two layers, matching the two kinds of encoder in this crate:
//!
//! * **Byte-exact word fixtures** for the executable single-pass backend
//!   (`fast`): each opcode family is pinned to the exact `u32` words
//!   `translate_fast` emits for a small fixture function. These words are
//!   *executed* by `lpat_vm::native`, so any encoding drift is a
//!   semantics change and must show up here as a conscious diff, not
//!   silently. The expected arrays were transcribed from a verified run
//!   and spot-checked against the field accessors in [`enc`].
//! * **Size-model fixtures** for the offline `cisc32`/`risc32` encoders:
//!   those model instruction-encoding *density* (Figure 5), not
//!   execution, so their goldens are exact section sizes.

use lpat_codegen::fast::{enc, translate_fast, FastEnv, FastFunc};
use lpat_codegen::{compile_module, Cisc32, Risc32};

/// Translate `@name` under a fixed synthetic address layout so function
/// and global addresses — and therefore the golden words — are stable.
fn translate(src: &str, name: &str) -> FastFunc {
    let m = lpat_asm::parse_module("t", src).unwrap();
    m.verify().unwrap_or_else(|e| panic!("{e:?}"));
    let fid = m.func_by_name(name).unwrap();
    let env = FastEnv {
        func_addr: &|f| 0x1000 + (f.index() as u32) * 16,
        global_addr: &|i| Some(0x2000 + (i as u32) * 64),
        guard: &|_| None,
    };
    translate_fast(&m, fid, &env).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Render words as `op:word` pairs for failure messages.
fn dis(words: &[u32]) -> String {
    words
        .iter()
        .map(|&w| format!("{:02x}:{:08x}", enc::op(w), w))
        .collect::<Vec<_>>()
        .join(" ")
}

#[track_caller]
fn assert_words(ff: &FastFunc, expect: &[u32]) {
    assert_eq!(
        ff.words,
        expect,
        "\n  got:    {}\n  expect: {}",
        dis(&ff.words),
        dis(expect)
    );
}

/// Opcode of every non-[`enc::ACCT`] word, in order — the family shape
/// without the operand detail, so failures read as a diff of mnemonics.
fn ops(ff: &FastFunc) -> Vec<u8> {
    ff.words
        .iter()
        .map(|&w| enc::op(w))
        .filter(|&o| o != enc::ACCT)
        .collect()
}

#[test]
fn golden_alu_family() {
    // Three-address R-format for every two-operand ALU op; each IR
    // instruction is preceded by its ACCT fuel word.
    let ff = translate(
        "define int @alu(int %a, int %b) {
e:
  %s = add int %a, %b
  %d = sub int %s, %b
  %m = mul int %d, %b
  %x = xor int %m, %b
  %o = or int %x, %b
  %n = and int %o, %b
  ret int %n
}",
        "alu",
    );
    assert_words(
        &ff,
        &[
            0x00000010, 0x012ac800, // acct; add  r5, r11(%a), r4(%b)
            0x00000011, 0x02314800, // acct; sub  r6, r5, r4
            0x00000012, 0x03398800, // acct; mul  r7, r6, r4
            0x00000017, 0x0741c800, // acct; xor  r8, r7, r4
            0x00000016, 0x064a0800, // acct; or   r9, r8, r4
            0x00000015, 0x05524800, // acct; and  r10, r9, r4
            0x00000000, 0x2c02800b, // acct; ret  r10 (S32)
        ],
    );
    assert_eq!(
        ops(&ff),
        [
            enc::ADD,
            enc::SUB,
            enc::MUL,
            enc::XOR,
            enc::OR,
            enc::AND,
            enc::RET
        ]
    );
    assert_eq!(ff.n_slots, 0, "8 live values fit the 28 register homes");
    // Spot-check the R-format fields of the dependent chain: each op
    // reads the previous result in `ra` and the shared `%b` home in `rb`,
    // and results are allocated to consecutive homes from r5.
    let (add, sub) = (ff.words[1], ff.words[3]);
    assert_eq!(enc::op(add), enc::ADD);
    assert_eq!(enc::rd(add), 5);
    assert_eq!(enc::ra(sub), enc::rd(add), "sub reads add's result");
    assert_eq!(enc::rb(sub), enc::rb(add), "%b's home is shared");
}

#[test]
fn golden_shift_div_family() {
    // Shift amounts are register operands (masked at execution); the
    // constant amounts here materialise through LDI first. Signed `shr`
    // selects SRA, unsigned selects SRL; signed div/rem select DIVS/REMS.
    let ff = translate(
        "define int @shifts(int %a, uint %u) {
e:
  %l = shl int %a, 3
  %r = shr int %l, 2
  %q = shr uint %u, 1
  %c = cast uint %q to int
  %d = div int %r, %c
  %m = rem int %d, 7
  ret int %m
}",
        "shifts",
    );
    assert_words(
        &ff,
        &[
            0x00000018, 0x19100003,
            0x08228420, // acct; ldi r2, 3;  sll r4, r10(%a), r2 (width 32)
            0x00000019, 0x19100002, 0x0a290420, // acct; ldi r2, 2;  sra r5, r4, r2
            0x00000019, 0x19100001, 0x0932c420, // acct; ldi r2, 1;  srl r6, r11(%u), r2
            0x0000000e, 0x12398000, //             acct; mov r7, r6 (uint→int cast)
            0x00000013, 0x0b414e00, //             acct; divs r8, r5, r7
            0x00000014, 0x19100007, 0x0d4a0400, // acct; ldi r2, 7;  rems r9, r8, r2
            0x00000000, 0x2c02400b, //             acct; ret r9 (S32)
        ],
    );
    assert_eq!(
        ops(&ff),
        [
            enc::LDI,
            enc::SLL,
            enc::LDI,
            enc::SRA,
            enc::LDI,
            enc::SRL,
            enc::MOV,
            enc::DIVS,
            enc::LDI,
            enc::REMS,
            enc::RET
        ]
    );
}

#[test]
fn golden_cmp_branch_family() {
    // A compare used by a branch: CMP writes the flag register, CBNZ
    // consumes it with a paired fall-through BR word after it (the taken
    // path skips that word).
    let ff = translate(
        "define bool @cmp(int %a, int %b) {
e:
  %lt = setlt int %a, %b
  br bool %lt, label %t, label %f
t:
  ret bool %lt
f:
  %eq = seteq int %a, %b
  ret bool %eq
}",
        "cmp",
    );
    assert_words(
        &ff,
        &[
            0x0000001c, 0x0f214c02, // acct; cmp.lt r4, r5(%a), r6(%b)
            0x00000001, 0x29010000, 0x28000001, // acct; cbnz r4 → edge 0; br edge 1
            0x00000000, 0x2c010001, // acct; ret r4 (Bool)
            0x0000001a, 0x0f394c00, // acct; cmp.eq r7, r5, r6
            0x00000000, 0x2c01c001, // acct; ret r7 (Bool)
        ],
    );
    assert_eq!(
        ops(&ff),
        [enc::CMP, enc::CBNZ, enc::BR, enc::RET, enc::CMP, enc::RET]
    );
    // CBNZ names edge 0; its paired fall-through BR names edge 1.
    assert_eq!(ff.edges.len(), 2);
    assert_eq!(enc::uimm14(ff.words[3]), 0);
    assert_eq!(ff.words[4] & 0x00FF_FFFF, 1);
}

#[test]
fn golden_immediate_family() {
    // Small constants ride LDI's signed 14-bit immediate; wide constants
    // split into LUI (high 19 bits) + ORI (low 13 bits):
    // 123456789 = 0x75BCD15 = (0x3ADE << 13) | 0xD15.
    let ff = translate(
        "define int @imm(int %a) {
e:
  %s = add int %a, 11
  %b = add int %s, 123456789
  ret int %b
}",
        "imm",
    );
    assert_words(
        &ff,
        &[
            0x00000010, 0x1910000b, 0x01218400, // acct; ldi r2, 11;  add r4, r6(%a), r2
            0x00000010, 0x1a103ade, 0x1b108d15,
            0x01290400, // acct; lui r2, 0x3ade; ori r2, r2, 0xd15; add r5, r4, r2
            0x00000000, 0x2c01400b, //             acct; ret r5 (S32)
        ],
    );
    assert_eq!(
        ops(&ff),
        [enc::LDI, enc::ADD, enc::LUI, enc::ORI, enc::ADD, enc::RET]
    );
    // The LUI/ORI pair reassembles exactly the constant's low 32 bits.
    let (lui, ori) = (ff.words[4], ff.words[5]);
    assert_eq!(enc::op(lui), enc::LUI);
    assert_eq!(enc::op(ori), enc::ORI);
    assert_eq!((lui & 0x7FFFF) << 13 | (ori & 0x1FFF), 123_456_789);
}

#[test]
fn golden_memory_family() {
    // Typed LD/ST: the class code rides the R-format extra field so the
    // emulator reproduces the interpreter's exact width/sign semantics.
    let ff = translate(
        "define int @mem(int* %p, int %v) {
e:
  store int %v, int* %p
  %r = load int* %p
  ret int %r
}",
        "mem",
    );
    assert_words(
        &ff,
        &[
            0x0000000a, 0x21010c05, // acct; st [r4(%p)], r6(%v)  (class S32)
            0x00000009, 0x20290005, // acct; ld r5, [r4]  (class S32)
            0x00000000, 0x2c01400b, // acct; ret r5 (S32)
        ],
    );
    assert_eq!(ops(&ff), [enc::ST, enc::LD, enc::RET]);
}

#[test]
fn golden_alloc_family() {
    // ALLOC's extra-field flag bits select stack vs. heap and count-one
    // vs. counted; FREE releases a heap cell.
    let ff = translate(
        "define int @alloc(uint %n) {
e:
  %a = alloca int
  store int 7, int* %a
  %h = malloc int, uint %n
  free int* %h
  %r = load int* %a
  ret int %r
}",
        "alloc",
    );
    assert_words(
        &ff,
        &[
            0x00000008, 0x19100004,
            0x22200403, // acct; ldi r2, 4;  alloc r4, r2 (stack, count-one)
            0x0000000a, 0x19100007, 0x21010405, // acct; ldi r2, 7;  st [r4], r2 (S32)
            0x00000006, 0x19100004,
            0x2229c404, // acct; ldi r2, 4;  alloc r5, r2 × r7(%n) (heap, unsigned count)
            0x00000007, 0x23014000, //             acct; free r5
            0x00000009, 0x20310005, //             acct; ld r6, [r4] (S32)
            0x00000000, 0x2c01800b, //             acct; ret r6 (S32)
        ],
    );
    assert_eq!(
        ops(&ff),
        [
            enc::LDI,
            enc::ALLOC,
            enc::LDI,
            enc::ST,
            enc::LDI,
            enc::ALLOC,
            enc::FREE,
            enc::LD,
            enc::RET
        ]
    );
    // Stack alloca carries flag bit 1; the heap malloc with an unsigned
    // register count carries bit 4 (and not bit 2: the count is live).
    let (stack, heap) = (ff.words[2], ff.words[8]);
    assert_eq!(enc::extra(stack) & 1, 1);
    assert_eq!(enc::extra(heap) & 1, 0);
    assert_eq!(enc::extra(heap) & 4, 4);
}

#[test]
fn golden_control_flow_family() {
    // A counted loop: φs become edge copies (no words), branches name
    // edge-table entries, and every block's first word is an OSR entry.
    let ff = translate(
        "define int @flow(int %n) {
e:
  br label %h
h:
  %i = phi int [ 0, %e ], [ %i2, %b ]
  %c = setlt int %i, %n
  br bool %c, label %b, label %x
b:
  %i2 = add int %i, 1
  br label %h
x:
  ret int %i
}",
        "flow",
    );
    assert_words(
        &ff,
        &[
            0x00000001, 0x28000000, // acct; br edge 0  (e → h, copies 0 → %i)
            0x0000001c, 0x0f290e02, // acct; cmp.lt r5, r4(%i), r7(%n)
            0x00000001, 0x29014001, 0x28000002, // acct; cbnz r5 → edge 1; br edge 2
            0x00000010, 0x19100001, 0x01310400, // acct; ldi r2, 1;  add r6, r4, r2
            0x00000001, 0x28000003, // acct; br edge 3  (back-edge b → h)
            0x00000000, 0x2c01000b, // acct; ret r4 (S32)
        ],
    );
    assert_eq!(ff.block_word.len(), 4);
    // The φ web keeps one home for %i across iterations: the back-edge
    // copies %i2 into it.
    let back = ff.edges.iter().find(|e| e.back).expect("loop back-edge");
    assert_eq!((back.from, back.to), (2, 1));
    assert_eq!(back.copies.len(), 1);
}

#[test]
fn golden_call_ret_family() {
    // Calls are one CALLD word naming an out-of-line descriptor; the
    // return value class rides RET's immediate bits.
    let ff = translate(
        "define int @callee(int %x) {
e:
  %r = mul int %x, 3
  ret int %r
}
define int @call(int %a) {
e:
  %r = call int @callee(int %a)
  ret int %r
}",
        "call",
    );
    assert_words(
        &ff,
        &[
            0x0000000d, 0x2b000000, // acct; calld desc 0
            0x00000000, 0x2c01000b, // acct; ret r4 (S32)
        ],
    );
    assert_eq!(ops(&ff), [enc::CALLD, enc::RET]);
    assert_eq!(ff.calls.len(), 1);
    let c = &ff.calls[0];
    assert_eq!(c.args.len(), 1);
    assert!(c.dst.is_some(), "call result is used");
    assert!(c.eh.is_none(), "plain call, not invoke");
}

#[test]
fn golden_switch_unwind_family() {
    // SWITCH names an out-of-line case table; UNWIND is a bare E-word.
    let ff = translate(
        "define int @switch(int %x) {
e:
  switch int %x, label %d [ int 1, label %a int 2, label %b ]
a:
  ret int 10
b:
  ret int 20
d:
  unwind
}",
        "switch",
    );
    assert_words(
        &ff,
        &[
            0x00000002, 0x2a010000, // acct; switch r4, table 0
            0x00000000, 0x1908000a, 0x2c00400b, // acct; ldi r1, 10;  ret r1 (S32)
            0x00000000, 0x19080014, 0x2c00400b, // acct; ldi r1, 20;  ret r1 (S32)
            0x00000004, 0x2d000000, // acct; unwind
        ],
    );
    assert_eq!(ff.switches.len(), 1);
    let sw = &ff.switches[0];
    assert_eq!(sw.cases.iter().map(|&(v, _)| v).collect::<Vec<_>>(), [1, 2]);
}

// ---------------------------------------------------------------------
// Size-model goldens: the offline cisc32/risc32 encoders are density
// models, so their fixture is exact section sizes for a fixed module.
// ---------------------------------------------------------------------

const SIZE_FIXTURE: &str = "
@table = global [64 x int] zeroinitializer
define int @main(int %n) {
e:
  br label %h
h:
  %i = phi int [ 0, %e ], [ %i2, %b ]
  %s = phi int [ 0, %e ], [ %s2, %b ]
  %c = setlt int %i, %n
  br bool %c, label %b, label %x
b:
  %p = getelementptr [64 x int]* @table, long 0, int %i
  %v = load int* %p
  %t = mul int %v, 3
  %s2 = add int %s, %t
  %i2 = add int %i, 1
  br label %h
x:
  ret int %s
}";

#[test]
fn golden_size_models() {
    let m = lpat_asm::parse_module("t", SIZE_FIXTURE).unwrap();
    m.verify().unwrap();
    let cisc = compile_module(&m, &Cisc32);
    let risc = compile_module(&m, &Risc32);
    assert_eq!(
        (cisc.code_size, cisc.data_size, cisc.overhead, cisc.total),
        (41, 256, 120, 417),
        "cisc32 size model drifted"
    );
    assert_eq!(
        (risc.code_size, risc.data_size, risc.overhead, risc.total),
        (92, 256, 120, 468),
        "risc32 size model drifted"
    );
}
