//! Hostile checkpoints: a checkpoint whose tensors disagree with their
//! shapes, whose layers do not chain, whose networks do not fit the
//! encoder or are not the architecture its configuration names, or
//! whose JSON nests past the parser's depth cap must fail
//! `Agent::load_json` with an error — never load and then panic at the
//! first decision, never overflow the stack — for every Table IV
//! architecture, while an untouched checkpoint loads and scores
//! bit-identically.

use rlsched_nn::{infer, Scratch};
use rlsched_rl::categorical::MASK_OFF;
use rlsched_sim::MetricKind;
use rlscheduler::{Agent, AgentConfig, ObsConfig, PolicyKind, JOB_FEATURES};
use serde_json::Value;

/// The smallest window every architecture accepts (LeNet needs 64).
const K: usize = 64;

fn agent(kind: PolicyKind) -> Agent {
    Agent::new(AgentConfig {
        policy: kind,
        obs: ObsConfig {
            max_obsv: K,
            ..ObsConfig::default()
        },
        metric: MetricKind::BoundedSlowdown,
        ppo: Default::default(),
        seed: 3,
    })
}

/// The object member at `path`.
fn at<'a>(v: &'a mut Value, path: &[&str]) -> &'a mut Value {
    path.iter().fold(v, |v, key| match v {
        Value::Object(m) => m.get_mut(*key).unwrap_or_else(|| panic!("no `{key}`")),
        other => panic!("`{key}` of a non-object {other:?}"),
    })
}

fn items(v: &mut Value) -> &mut Vec<Value> {
    match v {
        Value::Array(a) => a,
        other => panic!("not an array: {other:?}"),
    }
}

fn bump(v: &mut Value) {
    match v {
        Value::Number(n) => *n += 1.0,
        other => panic!("not a number: {other:?}"),
    }
}

/// Drop the last value of the first `"data"` array, depth first.
fn truncate_first_data(v: &mut Value) -> bool {
    match v {
        Value::Object(m) => m.iter_mut().any(|(k, v)| {
            if let (true, Value::Array(a)) = (k == "data", &mut *v) {
                a.pop().is_some()
            } else {
                truncate_first_data(v)
            }
        }),
        Value::Array(a) => a.iter_mut().any(truncate_first_data),
        _ => false,
    }
}

/// The policy network's object and its variant's name.
fn policy(v: &mut Value) -> (&str, &mut Value) {
    match at(v, &["policy"]) {
        Value::Object(m) => {
            let (name, net) = m.iter_mut().next().expect("one variant");
            (name.as_str(), net)
        }
        other => panic!("not a policy: {other:?}"),
    }
}

/// A named edit of a checkpoint's JSON tree.
type Mutation = (&'static str, fn(&mut Value));

/// The mutations, each named for what it breaks.
fn mutations() -> Vec<Mutation> {
    vec![
        ("truncated data", |v| assert!(truncate_first_data(v))),
        ("swapped policy layers", |v| match policy(v) {
            ("Kernel", net) => items(at(net, &["kernel", "layers"])).swap(0, 1),
            ("Mlp", net) => items(at(net, &["net", "layers"])).swap(0, 1),
            (_, Value::Object(m)) => {
                let conv1 = m.remove("conv1").expect("conv1");
                let conv2 = m.insert("conv2".into(), conv1).expect("conv2");
                m.insert("conv1".into(), conv2);
            }
            other => panic!("unknown policy {other:?}"),
        }),
        ("swapped value layers", |v| {
            items(at(v, &["value", "net", "layers"])).swap(1, 2)
        }),
        ("wrong window or image height", |v| match policy(v) {
            ("Kernel", net) => bump(at(net, &["max_obsv"])),
            ("LeNet", net) => bump(at(net, &["h"])),
            _ => bump(at(v, &["cfg", "obs", "max_obsv"])),
        }),
        ("`cfg.policy` names another kind", |v| {
            let kind = at(v, &["cfg", "policy"]);
            let next = match &*kind {
                Value::String(name) => match name.as_str() {
                    "Kernel" => "MlpV1",
                    "MlpV1" => "MlpV2",
                    "MlpV2" => "MlpV3",
                    "MlpV3" => "LeNet",
                    _ => "Kernel",
                },
                other => panic!("not a policy kind: {other:?}"),
            };
            *kind = Value::String(next.into());
        }),
    ]
}

/// `agent`'s log-probs over one window.
fn log_probs(agent: &Agent, obs: &[f32], mask: &[f32]) -> Vec<f32> {
    let mut out = Vec::new();
    infer::log_probs(
        &agent.ppo().policy,
        obs,
        mask,
        1,
        &mut Scratch::new(),
        &mut out,
    );
    out
}

/// A decision point with `valid` jobs waiting.
fn observation(valid: usize) -> (Vec<f32>, Vec<f32>) {
    let obs = (0..K * JOB_FEATURES)
        .map(|i| {
            if i < valid * JOB_FEATURES {
                (i as f32 * 0.37).sin().abs()
            } else {
                0.0
            }
        })
        .collect();
    let mask = (0..K)
        .map(|s| if s < valid { 0.0 } else { MASK_OFF })
        .collect();
    (obs, mask)
}

#[test]
fn mutated_checkpoints_are_errors_and_untouched_ones_score_identically() {
    for kind in PolicyKind::all() {
        let original = agent(kind);
        let json = original.save_json();
        let loaded = Agent::load_json(&json).expect("an untouched checkpoint loads");
        for valid in [1, 17, K] {
            let (obs, mask) = observation(valid);
            let (want, got) = (
                log_probs(&original, &obs, &mask),
                log_probs(&loaded, &obs, &mask),
            );
            let bits = |row: &[f32]| row.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{}: {valid} jobs", kind.name());
        }

        for (what, mutate) in mutations() {
            let mut tree: Value = serde_json::from_str(&json).expect("a checkpoint is JSON");
            mutate(&mut tree);
            let bad = serde_json::to_string(&tree).expect("JSON renders");
            let outcome = std::panic::catch_unwind(|| Agent::load_json(&bad).map(|_| ()));
            match outcome {
                Ok(Err(_)) => {}
                Ok(Ok(())) => panic!("{} with {what} loaded", kind.name()),
                Err(_) => panic!("{} with {what} panicked in load_json", kind.name()),
            }
        }
    }
}

/// A checkpoint nested far past the JSON depth cap is an error, not a
/// stack overflow that aborts the loading process.
#[test]
fn a_deeply_nested_checkpoint_is_an_error() {
    let deep = format!("{{\"policy\":{}", "[".repeat(100_000));
    assert!(Agent::load_json(&deep).is_err());
}
