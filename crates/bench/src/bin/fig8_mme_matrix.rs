//! Reproduces **Fig 8: the MME schema conversion matrix** (paper §III-B).
//!
//! "Figure 8 shows the upgrading/downgrading matrix for the Mobility
//! Management Entity (MME) … the upgrading of MME from V3 to V5 to support
//! a new feature requires more fields to be added in the session data. In
//! case of a failed schema upgrade, schema downgrade can happen during
//! rollback."
//!
//! U_i marks the supported adjacent upgrades, D_i the adjacent downgrades,
//! X unsupported direct conversions — derived live from the registered
//! schema chain (and each U/D verified by actually converting a session).

use hdm_bench::render_table;
use hdm_common::SplitMix64;
use hdm_gmdb::SchemaRegistry;
use hdm_workloads::mme::{generate_session, mme_schema_chain, MmeConfig, MME_VERSIONS};

fn main() {
    println!("=== Fig 8: MME schema upgrade/downgrade matrix ===\n");

    let mut reg = SchemaRegistry::new();
    for s in mme_schema_chain() {
        reg.register(s).unwrap();
    }
    let mut rng = SplitMix64::new(8);
    let cfg = MmeConfig::default();

    let mut rows = vec![{
        let mut h = vec!["MME".to_string()];
        h.extend(MME_VERSIONS.iter().map(|v| format!("V{v}")));
        h
    }];
    for (i, &from) in MME_VERSIONS.iter().enumerate() {
        let mut row = vec![format!("V{from}")];
        for (j, &to) in MME_VERSIONS.iter().enumerate() {
            let cell = if from == to {
                "-".to_string()
            } else if reg.is_adjacent("mme_session", from, to) {
                // Verify the conversion actually works on a real session.
                let obj = generate_session(&mut rng, from, &cfg);
                reg.convert_adjacent("mme_session", &obj, from, to)
                    .expect("adjacent conversion must succeed");
                if j > i {
                    format!("U{} ({from}->{to})", i + 1)
                } else {
                    format!("D{} ({from}->{to})", j + 1)
                }
            } else {
                // And that non-adjacent direct conversion is rejected.
                let obj = generate_session(&mut rng, from, &cfg);
                assert!(reg.convert_adjacent("mme_session", &obj, from, to).is_err());
                "X".to_string()
            };
            row.push(cell);
        }
        rows.push(row);
    }
    println!("{}", render_table(&rows));
    println!(
        "Direct conversion is defined between adjacent versions only (X\n\
         elsewhere, as in the paper); longer hops compose adjacent steps:\n"
    );

    // Demonstrate the composed chain V3 -> V8.
    let obj = generate_session(&mut rng, 3, &cfg);
    let (v8, _) = reg.convert("mme_session", &obj, 3, 8).unwrap();
    let (back, _) = reg.convert("mme_session", &v8, 8, 3).unwrap();
    println!(
        "V3 session ({}B) --U1,U2,U3,U4--> V8 ({}B) --D4,D3,D2,D1--> V3 round-trips: {}",
        serde_json::to_string(&obj).unwrap().len(),
        serde_json::to_string(&v8).unwrap().len(),
        back == obj
    );
}
