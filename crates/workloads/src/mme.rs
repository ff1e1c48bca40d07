//! MME session data and the Fig 8 schema-version chain.
//!
//! "Typical volume of a single user session data is about 5-10KB and is
//! represented as a tree-modeled object in a JSON format" (§III-B). The
//! generator produces sessions in that size band: a root record with
//! identity fields plus arrays of bearer and PDN-connection sub-records,
//! padded with realistic-looking opaque NAS state. The schema chain is
//! Fig 8's V3→V5→V6→V7→V8, each version appending fields (the upgrade
//! motivations: "the upgrading of MME from V3 to V5 to support a new
//! feature requires more fields to be added in the session data").

use hdm_common::SplitMix64;
use hdm_gmdb::object::{FieldDef, FieldType, ObjectSchema, RecordSchema};
use serde_json::{json, Value};

/// Versions of the Fig 8 matrix.
pub const MME_VERSIONS: [u32; 5] = [3, 5, 6, 7, 8];

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct MmeConfig {
    /// Bearers per session (drives object size).
    pub bearers: usize,
    /// Bytes of opaque NAS state (pads the object into the 5–10 KB band).
    pub nas_state_bytes: usize,
    pub seed: u64,
}

impl Default for MmeConfig {
    fn default() -> Self {
        Self {
            bearers: 8,
            nas_state_bytes: 6_000,
            seed: 0x33e,
        }
    }
}

fn bearer_schema() -> RecordSchema {
    RecordSchema::new(vec![
        FieldDef::new("bearer_id", FieldType::Int),
        FieldDef::new("qci", FieldType::Int),
        FieldDef::new("gtp_teid", FieldType::Int),
        FieldDef::new("apn", FieldType::Str),
    ])
}

/// The Fig 8 chain: V3 baseline, each later version appending root fields.
pub fn mme_schema_chain() -> Vec<ObjectSchema> {
    let base = vec![
        FieldDef::new("id", FieldType::Str),
        FieldDef::new("imsi", FieldType::Int),
        FieldDef::new("guti", FieldType::Str),
        FieldDef::new("tracking_area", FieldType::Int),
        FieldDef::new("nas_state", FieldType::Str),
        FieldDef::new("bearers", FieldType::Record(bearer_schema())),
    ];
    let additions: [(u32, Vec<FieldDef>); 5] = [
        (3, vec![]),
        (
            5,
            vec![
                FieldDef::new("csfb_capable", FieldType::Bool).with_default(json!(false)),
                FieldDef::new("srvcc_target", FieldType::Str).with_default(json!("")),
            ],
        ),
        (
            6,
            vec![FieldDef::new("volte_profile", FieldType::Str).with_default(json!("default"))],
        ),
        (
            7,
            vec![
                FieldDef::new("nb_iot", FieldType::Bool).with_default(json!(false)),
                FieldDef::new("edrx_cycle", FieldType::Int).with_default(json!(0)),
            ],
        ),
        (
            8,
            vec![FieldDef::new("slice_id", FieldType::Int).with_default(json!(0))],
        ),
    ];
    let mut fields = base;
    let mut out = Vec::new();
    for (version, extra) in additions {
        fields.extend(extra);
        out.push(
            ObjectSchema::new(
                "mme_session",
                version,
                RecordSchema::new(fields.clone()),
                "id",
            )
            .expect("static schema"),
        );
    }
    out
}

/// Generate one session object conforming to the given version.
pub fn generate_session(rng: &mut SplitMix64, version: u32, cfg: &MmeConfig) -> Value {
    let idx = MME_VERSIONS
        .iter()
        .position(|&v| v == version)
        .expect("known MME version");
    let imsi = 460_000_000_000u64 + rng.next_below(1_000_000_000);
    let bearers: Vec<Value> = (0..cfg.bearers)
        .map(|i| {
            json!({
                "bearer_id": 5 + i as i64,
                "qci": rng.range_i64(1, 9),
                "gtp_teid": rng.next_below(1 << 31) as i64,
                "apn": format!("apn-{}.operator.example", rng.next_below(4)),
            })
        })
        .collect();
    // Opaque hex-ish NAS blob padding into the 5–10 KB band.
    let mut nas = String::with_capacity(cfg.nas_state_bytes);
    while nas.len() < cfg.nas_state_bytes {
        nas.push_str(&format!("{:016x}", rng.next_u64()));
    }
    nas.truncate(cfg.nas_state_bytes);

    let mut obj = json!({
        "id": format!("imsi-{imsi}"),
        "imsi": imsi as i64,
        "guti": format!("guti-{:08x}", rng.next_u64() as u32),
        "tracking_area": rng.range_i64(1, 4096),
        "nas_state": nas,
        "bearers": bearers,
    });
    // Version-specific appended fields.
    if idx >= 1 {
        obj["csfb_capable"] = json!(rng.chance(0.3));
        obj["srvcc_target"] = json!(format!("mss-{}", rng.next_below(8)));
    }
    if idx >= 2 {
        obj["volte_profile"] = json!(format!("profile-{}", rng.next_below(3)));
    }
    if idx >= 3 {
        obj["nb_iot"] = json!(rng.chance(0.1));
        obj["edrx_cycle"] = json!(rng.range_i64(0, 2048));
    }
    if idx >= 4 {
        obj["slice_id"] = json!(rng.range_i64(0, 15));
    }
    obj
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdm_gmdb::SchemaRegistry;

    fn registry() -> SchemaRegistry {
        let mut reg = SchemaRegistry::new();
        for s in mme_schema_chain() {
            reg.register(s).unwrap();
        }
        reg
    }

    #[test]
    fn chain_registers_cleanly() {
        let reg = registry();
        assert_eq!(reg.versions("mme_session"), MME_VERSIONS.to_vec());
    }

    #[test]
    fn sessions_conform_to_their_version() {
        let reg = registry();
        let mut rng = SplitMix64::new(1);
        let cfg = MmeConfig::default();
        for &v in &MME_VERSIONS {
            let obj = generate_session(&mut rng, v, &cfg);
            reg.get("mme_session", v)
                .unwrap()
                .root
                .validate(&obj)
                .unwrap_or_else(|e| panic!("v{v}: {e}"));
        }
    }

    #[test]
    fn sessions_land_in_the_5_to_10_kb_band() {
        let mut rng = SplitMix64::new(2);
        let cfg = MmeConfig::default();
        for &v in &MME_VERSIONS {
            let obj = generate_session(&mut rng, v, &cfg);
            let size = serde_json::to_string(&obj).unwrap().len();
            assert!((5_000..=10_000).contains(&size), "v{v} session is {size}B");
        }
    }

    #[test]
    fn v3_session_upgrades_to_v8_and_back() {
        let reg = registry();
        let mut rng = SplitMix64::new(3);
        let obj = generate_session(&mut rng, 3, &MmeConfig::default());
        let (v8, _) = reg.convert("mme_session", &obj, 3, 8).unwrap();
        reg.get("mme_session", 8)
            .unwrap()
            .root
            .validate(&v8)
            .unwrap();
        assert_eq!(v8["slice_id"], json!(0), "default fills");
        let (back, _) = reg.convert("mme_session", &v8, 8, 3).unwrap();
        assert_eq!(back, obj);
    }

    #[test]
    fn generator_is_deterministic() {
        let cfg = MmeConfig::default();
        let a = generate_session(&mut SplitMix64::new(9), 5, &cfg);
        let b = generate_session(&mut SplitMix64::new(9), 5, &cfg);
        assert_eq!(a, b);
    }
}
