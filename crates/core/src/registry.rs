//! The experiment registry: the open-ended successor of the old
//! closed `JobKind` enum.
//!
//! A [`Registry`] owns a list of [`Experiment`] implementations in
//! canonical report order. The sweep engine ([`crate::sweep`])
//! enumerates jobs from whatever is registered, so a custom
//! experiment joins the evaluation with one [`Registry::register`]
//! call — no enum to extend, no executor match arm, no renderer
//! change.
//!
//! [`Registry::standard`] registers one experiment per artifact ×
//! scenario cell of [`ARTIFACTS`]: the paper's full evaluation matrix
//! plus this reproduction's own ablations, 26 experiments.

use crate::architecture::Scenario;
use crate::experiments::{Artifact, Experiment, ExperimentParams, ARTIFACTS};
use crate::report::Table;
use hyvec_cachesim::engine::SimOptions;

/// An ordered collection of registered experiments.
#[derive(Default)]
pub struct Registry {
    experiments: Vec<Box<dyn Experiment>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("ids", &self.ids())
            .finish()
    }
}

/// One cell of [`ARTIFACTS`]: an artifact evaluated for one scenario.
#[derive(Debug)]
struct MatrixCell {
    artifact: &'static Artifact,
    scenario: Scenario,
    id: String,
}

impl Experiment for MatrixCell {
    fn id(&self) -> &str {
        &self.id
    }

    fn description(&self) -> &str {
        self.artifact.description
    }

    fn run(&self, params: ExperimentParams, options: SimOptions) -> Vec<Table> {
        (self.artifact.run)(self.scenario, params, options)
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry {
            experiments: Vec::new(),
        }
    }

    /// The standard evaluation matrix in canonical report order: each
    /// row of [`ARTIFACTS`] in turn, one experiment per scenario of
    /// the row.
    pub fn standard() -> Registry {
        let mut r = Registry::new();
        for artifact in ARTIFACTS {
            for &scenario in artifact.scenarios {
                r.register(Box::new(MatrixCell {
                    artifact,
                    scenario,
                    id: format!("{}/{scenario}", artifact.name),
                }));
            }
        }
        r
    }

    /// Appends an experiment.
    ///
    /// # Panics
    ///
    /// Panics if an experiment with the same id is already registered
    /// (duplicate ids would collide in seed derivation and reports).
    pub fn register(&mut self, experiment: Box<dyn Experiment>) {
        // hyvec-lint: allow(no-panic, "documented precondition (# Panics): duplicate ids would collide in seed derivation, corrupting determinism")
        assert!(
            self.get(experiment.id()).is_none(),
            "duplicate experiment id {:?}",
            experiment.id()
        );
        self.experiments.push(experiment);
    }

    /// Number of registered experiments.
    pub fn len(&self) -> usize {
        self.experiments.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.experiments.is_empty()
    }

    /// The registered ids, in registration (= report) order.
    pub fn ids(&self) -> Vec<&str> {
        self.experiments.iter().map(|e| e.id()).collect()
    }

    /// Looks an experiment up by id.
    pub fn get(&self, id: &str) -> Option<&dyn Experiment> {
        self.experiments
            .iter()
            .find(|e| e.id() == id)
            .map(|e| e.as_ref())
    }

    /// Iterates the registered experiments in order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Experiment> {
        self.experiments.iter().map(|e| e.as_ref())
    }

    /// Serializes the registry as the machine-readable index: id,
    /// artifact family, scenario, and one-line description per
    /// experiment, in registration (= report) order.
    ///
    /// `hyvec list --format json` prints this string and the serve
    /// daemon's `GET /experiments` serves it, byte-identical —
    /// clients may treat the two as the same document. Hand-rolled
    /// JSON, same offline discipline as [`crate::render`].
    pub fn index_json(&self) -> String {
        use crate::render::escape_json;
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"hyvec-registry/v1\",\n");
        out.push_str("  \"experiments\": [");
        for (i, e) in self.iter().enumerate() {
            let id = e.id();
            let (artifact, scenario) = id.split_once('/').unwrap_or((id, ""));
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    {{\"id\": \"{}\", \"artifact\": \"{}\", \"scenario\": \"{}\", \"description\": \"{}\"}}",
                escape_json(id),
                escape_json(artifact),
                escape_json(scenario),
                escape_json(e.description())
            ));
        }
        if self.is_empty() {
            out.push_str("]\n");
        } else {
            out.push_str("\n  ]\n");
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_covers_the_matrix() {
        let r = Registry::standard();
        assert_eq!(r.len(), 26);
        for s in Scenario::ALL {
            for prefix in [
                "methodology",
                "fig3",
                "fig4",
                "performance",
                "area",
                "reliability",
                "ablation-ways",
                "ablation-memlat",
                "ablation-voltage",
                "ablation-l2",
                "ablation-cores",
                "ablation-workloads",
            ] {
                let id = format!("{prefix}/{s}");
                assert!(r.get(&id).is_some(), "registry is missing {id}");
            }
        }
        assert!(r.get("soft-errors/B").is_some());
        assert!(r.get("ablation-granularity/A").is_some());
        assert!(r.get("fig5/A").is_none());
    }

    #[test]
    fn standard_index_is_pinned() {
        // Ids, their order and their descriptions: what `hyvec list
        // --format json` prints and `GET /experiments` serves. Any
        // change to the table of artifacts that moves these bytes
        // must be deliberate.
        let json = Registry::standard().index_json();
        assert_eq!(crate::seed::fnv1a(&json), 0xFAE4_DD7A_B7DA_0F8E, "{json}");
    }

    #[test]
    fn index_json_lists_every_experiment_with_a_description() {
        let r = Registry::standard();
        let json = r.index_json();
        assert!(json.contains("\"schema\": \"hyvec-registry/v1\""));
        for e in r.iter() {
            assert!(
                json.contains(&format!("\"id\": \"{}\"", e.id())),
                "index is missing {}",
                e.id()
            );
            assert!(
                !e.description().is_empty(),
                "{} has no description for the index",
                e.id()
            );
        }
        // Split fields accompany the full id.
        assert!(json.contains(
            "\"id\": \"fig3/A\", \"artifact\": \"fig3\", \"scenario\": \"A\", \"description\": \"Figure 3"
        ));
        // Exactly one array entry per experiment.
        assert_eq!(json.matches("\"id\": ").count(), r.len());
    }

    #[test]
    fn index_json_of_an_empty_registry_is_well_formed() {
        let json = Registry::new().index_json();
        assert!(json.contains("\"experiments\": []"));
    }

    #[test]
    fn ids_are_unique() {
        let registry = Registry::standard();
        let mut ids = registry.ids();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 26, "duplicate experiment ids");
    }

    /// A custom experiment: one empty table.
    struct Custom;

    impl Experiment for Custom {
        fn id(&self) -> &str {
            "custom/A"
        }

        fn run(&self, params: ExperimentParams, _: SimOptions) -> Vec<Table> {
            vec![Table::new(format!("seed-{}", params.seed))]
        }
    }

    #[test]
    #[should_panic(expected = "duplicate experiment id")]
    fn duplicate_registration_is_rejected() {
        let mut r = Registry::new();
        r.register(Box::new(Custom));
        r.register(Box::new(Custom));
    }

    #[test]
    fn registry_is_open_for_extension() {
        let mut r = Registry::standard();
        r.register(Box::new(Custom));
        assert_eq!(r.ids().last(), Some(&"custom/A"));
        let tables = r.get("custom/A").unwrap().run(
            ExperimentParams::default().with_seed(9),
            SimOptions::default(),
        );
        assert_eq!(tables[0].id, "seed-9");
    }
}
