//! Cross-process determinism of `bfc`'s output: nothing per-process
//! (symbol interning order, hasher seeds, allocation addresses) may leak
//! into what it prints. The test runs the real binary twice, in separate
//! child processes, and compares the bytes, the strongest form of the
//! check, since nothing in-process can carry over between the runs.

use std::io::Write;
use std::process::{Command, Output};

/// Several classes, a volatile, a lock, an array loop and one
/// unprotected field, so placements, proxies and race reports all
/// depend on symbol and object identities.
const SRC: &str = "
class Point {
    field x; field y; field z;
    meth get(o) { a = this.x; b = this.y; return a + b; }
    meth set(dx, dy) { this.x = dx; this.y = dy; this.z = dx + dy; return 0; }
}
class Locker {
    field n;
    volatile v;
    meth bump(l) { acq(l); this.n = this.n + 1; rel(l); this.v = 1; return 0; }
}
class Worker {
    meth run(p, l, arr) {
        r = p.set(1, 2);
        s = p.get(p);
        t = l.bump(l);
        for (i = 0; i < 8; i = i + 1) { arr[i] = i; }
        return 0;
    }
}
main {
    p = new Point;
    l = new Locker;
    w = new Worker;
    a1 = new_array(8);
    a2 = new_array(8);
    fork t1 = w.run(p, l, a1);
    fork t2 = w.run(p, l, a2);
    join(t1);
    join(t2);
}";

fn bfc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bfc"))
        .args(args)
        .output()
        .expect("run bfc")
}

#[test]
fn two_processes_print_identical_bytes() {
    let dir = std::env::temp_dir().join("bfc-cross-process-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("program.bfj");
    std::fs::File::create(&path)
        .and_then(|mut f| f.write_all(SRC.as_bytes()))
        .unwrap();
    let file = path.to_string_lossy().into_owned();
    for args in [
        &["instrument", &file, "--mode", "bigfoot"][..],
        &["instrument", &file, "--mode", "redcard"],
        &["instrument", &file, "--mode", "naive"],
        &["check", &file, "--schedules", "3", "--json"],
    ] {
        let first = bfc(args);
        let second = bfc(args);
        assert!(
            first.status.code() == Some(0) || first.status.code() == Some(1),
            "{args:?}: {}",
            String::from_utf8_lossy(&first.stderr)
        );
        assert!(!first.stdout.is_empty(), "{args:?} printed nothing");
        assert_eq!(first.status.code(), second.status.code(), "{args:?}");
        assert!(
            first.stdout == second.stdout,
            "{args:?} differs between processes:\n{}\n---\n{}",
            String::from_utf8_lossy(&first.stdout),
            String::from_utf8_lossy(&second.stdout)
        );
    }
}
