//! The entailment verdict cache lives for one analysis run: nothing an
//! earlier run on the same thread cached can change a later placement.

use bigfoot::instrument;
use bigfoot_bfj::{parse_program, pretty};
use bigfoot_workloads::{source, Scale};

fn placed(src: &str) -> String {
    pretty(&instrument(&parse_program(src).unwrap()).program)
}

#[test]
fn placements_do_not_depend_on_earlier_runs() {
    let p1 = source("sor", Scale::Small).unwrap();
    let p2 = source("lufact", Scale::Small).unwrap();
    let cold = {
        let p2 = p2.clone();
        std::thread::spawn(move || placed(&p2)).join().unwrap()
    };
    let first = placed(&p2);
    let _ = placed(&p1);
    let after_p1 = placed(&p2);
    assert_eq!(cold, first);
    assert_eq!(cold, after_p1);
}
