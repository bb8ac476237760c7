//! VM semantics under adversarial conditions: the memory model,
//! attacker interface, and intrinsic edge cases the attack framework
//! depends on.

use smokestack_ir::{Builder, CastKind, Function, Intrinsic, Module, Type, Value};
use smokestack_vm::{layout, Executor, Exit, FaultKind, FnInput, Memory, ScriptedInput, Vm};

/// One-run VM over a fresh session (keeps `vm.mem()` access available).
fn vm_for(m: Module) -> Vm {
    Executor::for_module(m).build().vm()
}

fn module_with_main(body: impl FnOnce(&mut Builder, &mut Module)) -> Module {
    let mut m = Module::new();
    let mut f = Function::new("main", vec![], Type::I64);
    {
        let mut b = Builder::new(&mut f);
        body(&mut b, &mut m);
    }
    m.add_func(f);
    smokestack_ir::assert_verified(&m);
    m
}

#[test]
fn attacker_can_read_everything_writable() {
    let m = module_with_main(|b, _| {
        let x = b.alloca(Type::I64, "x");
        b.store(Type::I64, Value::i64(0xfeed), x.into());
        let buf = b.alloca(Type::array(Type::I8, 8), "buf");
        b.call_intrinsic(Intrinsic::GetInput, vec![buf.into(), Value::i64(8)]);
        let v = b.load(Type::I64, x.into());
        b.ret(Some(v.into()));
    });
    let mut vm = vm_for(m);
    let seen = std::rc::Rc::new(std::cell::Cell::new(false));
    let seen_c = seen.clone();
    let out = vm.run_main(FnInput(move |mem: &mut Memory, _r, _max| {
        // Scan the stack for the secret the program just stored.
        let top = layout::STACK_TOP - layout::STACK_START_GAP;
        let mut a = top - 8;
        while a > top - 4096 {
            if mem.read_uint(a, 8) == Ok(0xfeed) {
                seen_c.set(true);
                break;
            }
            a -= 8;
        }
        vec![]
    }));
    assert_eq!(out.exit, Exit::Return(0xfeed));
    assert!(seen.get(), "attacker failed to read stack state");
}

#[test]
fn attacker_cannot_write_rodata() {
    let mut m = module_with_main(|b, _| b.ret(Some(Value::i64(0))));
    let g = m.add_cstring("secret_fmt", "fmt");
    let _ = g;
    let mut vm = vm_for(m);
    let addr = vm.global_addr("secret_fmt");
    assert!(vm.mem_mut().write(addr, &[0x41]).is_err());
    // But reading is allowed (the P-BOX is public).
    assert_eq!(&*vm.mem().read(addr, 3).unwrap(), b"fmt");
}

#[test]
fn attacker_writes_take_effect_mid_run() {
    // The input hook corrupts a local *before* the program reads it.
    let m = module_with_main(|b, _| {
        let gate = b.alloca(Type::I64, "gate");
        b.store(Type::I64, Value::i64(0), gate.into());
        let buf = b.alloca(Type::array(Type::I8, 8), "buf");
        b.call_intrinsic(Intrinsic::GetInput, vec![buf.into(), Value::i64(8)]);
        let v = b.load(Type::I64, gate.into());
        b.ret(Some(v.into()));
    });
    let mut vm = vm_for(m);
    let out = vm.run_main(FnInput(|mem: &mut Memory, _r, _max| {
        let top = layout::STACK_TOP - layout::STACK_START_GAP;
        let mut a = top - 8;
        // gate is the only zeroed 8-byte slot near the top; just blast a
        // small region (stays within the frame).
        while a > top - 64 {
            let _ = mem.write_uint(a, 777, 8);
            a -= 8;
        }
        vec![]
    }));
    assert_eq!(out.exit, Exit::Return(777));
}

#[test]
fn get_input_zero_max_reads_nothing() {
    let m = module_with_main(|b, _| {
        let buf = b.alloca(Type::array(Type::I8, 8), "buf");
        let n = b
            .call_intrinsic(Intrinsic::GetInput, vec![buf.into(), Value::i64(0)])
            .unwrap();
        b.ret(Some(n.into()));
    });
    let mut vm = vm_for(m);
    let out = vm.run_main(ScriptedInput::new(vec![vec![1, 2, 3]]));
    assert_eq!(out.exit, Exit::Return(0));
}

#[test]
fn snprintf_zero_cap_writes_nothing_returns_would_len() {
    let mut m = Module::new();
    let fmt = m.add_cstring("fmt", "%d");
    let mut f = Function::new("main", vec![], Type::I64);
    {
        let mut b = Builder::new(&mut f);
        let sentinel = b.alloca(Type::I64, "sentinel");
        b.store(Type::I64, Value::i64(0x1111), sentinel.into());
        let n = b
            .call_intrinsic(
                Intrinsic::SnprintfCat,
                vec![
                    sentinel.into(),
                    Value::i64(0),
                    Value::Global(fmt),
                    Value::i64(12345),
                ],
            )
            .unwrap();
        let v = b.load(Type::I64, sentinel.into());
        let sum = b.add64(n.into(), v.into());
        b.ret(Some(sum.into()));
    }
    m.add_func(f);
    let mut vm = vm_for(m);
    // cap == 0: nothing written (sentinel intact), returns 5.
    assert_eq!(
        vm.run_main(ScriptedInput::empty()).exit,
        Exit::Return(5 + 0x1111)
    );
}

#[test]
fn snprintf_negative_cap_is_unbounded() {
    // The CVE-2018-1000140 mechanic: a negative capacity, passed through
    // the u64 argument, unbounds the write.
    let mut m = Module::new();
    let fmt = m.add_cstring("fmt", "AAAAAAAAAAAAAAAA"); // 16 bytes
    let mut f = Function::new("main", vec![], Type::I64);
    {
        let mut b = Builder::new(&mut f);
        let victim = b.alloca(Type::I64, "victim");
        b.store(Type::I64, Value::i64(0), victim.into());
        let buf = b.alloca(Type::array(Type::I8, 8), "buf");
        // cap = -1 (as u64: huge) => writes all 16 bytes + NUL past the
        // 8-byte buffer into `victim` above it.
        b.call_intrinsic(
            Intrinsic::SnprintfCat,
            vec![
                buf.into(),
                Value::i64(-1),
                Value::Global(fmt),
                Value::i64(0),
            ],
        );
        let v = b.load(Type::I64, victim.into());
        b.ret(Some(v.into()));
    }
    m.add_func(f);
    let mut vm = vm_for(m);
    let out = vm.run_main(ScriptedInput::empty());
    assert_eq!(out.exit, Exit::Return(u64::from_le_bytes(*b"AAAAAAAA")));
}

#[test]
fn heap_exhaustion_returns_null() {
    let m = module_with_main(|b, _| {
        let p = b
            .call_intrinsic(Intrinsic::Malloc, vec![Value::i64(1 << 40)])
            .unwrap();
        let pi = b.cast(CastKind::PtrToInt, Type::I64, p.into());
        b.ret(Some(pi.into()));
    });
    let mut vm = vm_for(m);
    assert_eq!(vm.run_main(ScriptedInput::empty()).exit, Exit::Return(0));
}

#[test]
fn malloc_blocks_do_not_overlap() {
    let m = module_with_main(|b, _| {
        let p1 = b
            .call_intrinsic(Intrinsic::Malloc, vec![Value::i64(24)])
            .unwrap();
        let p2 = b
            .call_intrinsic(Intrinsic::Malloc, vec![Value::i64(24)])
            .unwrap();
        b.call_intrinsic(
            Intrinsic::Memset,
            vec![p1.into(), Value::i64(0xAA), Value::i64(24)],
        );
        b.call_intrinsic(
            Intrinsic::Memset,
            vec![p2.into(), Value::i64(0xBB), Value::i64(24)],
        );
        let v1 = b.load(Type::I8, p1.into());
        let v2 = b.load(Type::I8, p2.into());
        let v1w = b.cast(CastKind::ZextOrTrunc, Type::I64, v1.into());
        let v2w = b.cast(CastKind::ZextOrTrunc, Type::I64, v2.into());
        let shifted = b.bin(
            smokestack_ir::BinOp::Shl,
            smokestack_ir::IntWidth::W64,
            v2w.into(),
            Value::i64(8),
        );
        let sum = b.add64(v1w.into(), shifted.into());
        b.ret(Some(sum.into()));
    });
    let mut vm = vm_for(m);
    assert_eq!(
        vm.run_main(ScriptedInput::empty()).exit,
        Exit::Return(0xAA | (0xBB << 8))
    );
}

#[test]
fn deep_recursion_overflows_cleanly() {
    // A runaway recursion must end in StackOverflow, not a wild fault.
    let mut m = Module::new();
    let mut f = Function::new("spin", vec![Type::I64], Type::I64);
    {
        let mut b = Builder::new(&mut f);
        b.alloca(Type::array(Type::I8, 1024), "frame");
        let fid = smokestack_ir::FuncId(0);
        let r = b.call(fid, Type::I64, vec![Value::i64(0)]).unwrap();
        b.ret(Some(r.into()));
    }
    m.add_func(f);
    let mut main = Function::new("main", vec![], Type::I64);
    {
        let mut b = Builder::new(&mut main);
        let r = b
            .call(smokestack_ir::FuncId(0), Type::I64, vec![Value::i64(0)])
            .unwrap();
        b.ret(Some(r.into()));
    }
    m.add_func(main);
    let mut vm = vm_for(m);
    assert_eq!(
        vm.run_main(ScriptedInput::empty()).exit,
        Exit::Fault(FaultKind::StackOverflow)
    );
}

#[test]
fn io_apps_measure_waits_not_work() {
    let m = module_with_main(|b, _| {
        b.call_intrinsic(Intrinsic::IoWait, vec![Value::i64(123_456)]);
        b.ret(Some(Value::i64(0)));
    });
    let mut vm = vm_for(m);
    let out = vm.run_main(ScriptedInput::empty());
    assert!(out.cycles() >= 123_456.0);
    assert!(out.breakdown.io >= 123_456 * smokestack_vm::DECI);
}

#[test]
fn output_interleaves_ints_and_strings() {
    let mut m = Module::new();
    let s = m.add_cstring("s", "<>");
    let mut f = Function::new("main", vec![], Type::I64);
    {
        let mut b = Builder::new(&mut f);
        b.call_intrinsic(Intrinsic::PrintInt, vec![Value::i64(1)]);
        b.call_intrinsic(Intrinsic::PrintStr, vec![Value::Global(s)]);
        b.call_intrinsic(Intrinsic::PrintInt, vec![Value::i64(2)]);
        b.ret(Some(Value::i64(0)));
    }
    m.add_func(f);
    let mut vm = vm_for(m);
    let out = vm.run_main(ScriptedInput::empty());
    assert_eq!(out.output_text(), "1<>2");
}

#[test]
fn pseudo_state_survives_attacker_overwrite() {
    // Writing the PRNG state slot steers future draws — the full
    // write-side of the pseudo ablation.
    let m = module_with_main(|b, _| {
        let buf = b.alloca(Type::array(Type::I8, 8), "buf");
        b.call_intrinsic(Intrinsic::GetInput, vec![buf.into(), Value::i64(1)]);
        let r = b.call_intrinsic(Intrinsic::StackRng, vec![]).unwrap();
        b.ret(Some(r.into()));
    });
    let mut vm = Executor::for_module(m)
        .scheme(smokestack_srng::SchemeKind::Pseudo)
        .build()
        .vm();
    let planted = 0xABCDu64;
    let (_, predicted) = smokestack_srng::XorShift64::step(planted);
    let out = vm.run_main(FnInput(move |mem: &mut Memory, _r, _max| {
        mem.write_uint(layout::DATA_BASE, planted, 8).unwrap();
        vec![0]
    }));
    assert_eq!(out.exit, Exit::Return(predicted));
}
