//! The repro corpus: minimal diverging programs checked in under
//! `tests/corpus/` and replayed forever by `tests/corpus_replay.rs`.
//!
//! Each repro is a pair of files sharing a stem: `<stem>.dl` holds the
//! shrunk program behind `%` header comments recording the campaign
//! (`% campaign: <name>`), the run seed that drove its seeded choosers
//! (`% run seed: <n>`) and the divergence it witnessed; `<stem>.facts` holds the edb instance
//! as ground facts, one per line, parseable by
//! [`unchained_parser::parse_facts`]. Both files are deterministic in
//! the campaign seed, so re-running a campaign reproduces the corpus
//! byte for byte.

use std::io;
use std::path::{Path, PathBuf};

use unchained_common::{Instance, Interner};
use unchained_parser::{parse_facts, parse_program, Program};

use crate::grammar::Campaign;
use crate::oracle::fact_list;

/// Renders an instance as a fact file: `Pred(v1, v2).` lines, sorted.
pub fn facts_text(instance: &Instance, interner: &Interner) -> String {
    let mut lines: Vec<String> = fact_list(instance)
        .into_iter()
        .map(|(sym, tuple)| {
            if tuple.values().is_empty() {
                format!("{}.", interner.name(sym))
            } else {
                format!("{}{}.", interner.name(sym), tuple.display(interner))
            }
        })
        .collect();
    lines.sort();
    lines.join("\n")
}

/// A repro ready to be written (or just inspected by tests).
#[derive(Clone, Debug)]
pub struct Repro {
    /// File stem, e.g. `positive-s42-p17`.
    pub stem: String,
    /// The minimal diverging program.
    pub program: Program,
    /// The minimal diverging instance.
    pub instance: Instance,
    /// Header comment lines (without the `%` prefix).
    pub header: Vec<String>,
}

impl Repro {
    /// The `.dl` file contents: header comments then the program.
    pub fn program_text(&self, interner: &Interner) -> String {
        let mut out = String::new();
        for line in &self.header {
            out.push_str("% ");
            out.push_str(line);
            out.push('\n');
        }
        out.push_str(&self.program.display(interner).to_string());
        out
    }

    /// Writes `<stem>.dl` and `<stem>.facts` into `dir`.
    pub fn write(&self, dir: &Path, interner: &Interner) -> io::Result<(PathBuf, PathBuf)> {
        std::fs::create_dir_all(dir)?;
        let dl = dir.join(format!("{}.dl", self.stem));
        let facts = dir.join(format!("{}.facts", self.stem));
        std::fs::write(&dl, self.program_text(interner))?;
        let mut text = format!("% facts for {}\n", self.stem);
        let body = facts_text(&self.instance, interner);
        if !body.is_empty() {
            text.push_str(&body);
            text.push('\n');
        }
        std::fs::write(&facts, text)?;
        Ok((dl, facts))
    }
}

/// A corpus entry loaded back from disk.
#[derive(Debug)]
pub struct LoadedRepro {
    /// File stem.
    pub stem: String,
    /// The parsed program.
    pub program: Program,
    /// The parsed instance (empty if no `.facts` sibling exists).
    pub instance: Instance,
    /// Campaign recorded in the header, if any.
    pub campaign: Option<Campaign>,
    /// Run seed recorded in the header, if any.
    pub run_seed: Option<u64>,
}

/// Loads a `.dl` corpus file plus its optional `.facts` sibling.
pub fn load(dl_path: &Path, interner: &mut Interner) -> Result<LoadedRepro, String> {
    let stem = dl_path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or_default()
        .to_string();
    let src =
        std::fs::read_to_string(dl_path).map_err(|e| format!("{}: {e}", dl_path.display()))?;
    let header = |key: &str| {
        src.lines().find_map(|line| {
            let rest = line.trim().strip_prefix('%')?.trim();
            Some(rest.strip_prefix(key)?.trim().to_string())
        })
    };
    let campaign = header("campaign:").and_then(|v| Campaign::parse(&v));
    let run_seed = header("run seed:").and_then(|v| v.parse().ok());
    let program =
        parse_program(&src, interner).map_err(|e| format!("{}: {e}", dl_path.display()))?;
    let facts_path = dl_path.with_extension("facts");
    let instance = if facts_path.exists() {
        let text = std::fs::read_to_string(&facts_path)
            .map_err(|e| format!("{}: {e}", facts_path.display()))?;
        parse_facts(&text, interner).map_err(|e| format!("{}: {e}", facts_path.display()))?
    } else {
        Instance::new()
    };
    Ok(LoadedRepro {
        stem,
        program,
        instance,
        campaign,
        run_seed,
    })
}

/// All `.dl` files in `dir`, sorted by name for deterministic replay.
pub fn corpus_files(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "dl"))
        .collect();
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use unchained_common::{Tuple, Value};

    #[test]
    fn write_then_load_round_trips() {
        let mut interner = Interner::new();
        let program = parse_program(
            "T(x, y) :- G(x, y).\nT(x, y) :- G(x, z), T(z, y).",
            &mut interner,
        )
        .unwrap();
        let g = interner.get("G").unwrap();
        let mut instance = Instance::new();
        instance.insert_fact(g, Tuple::from([Value::Int(1), Value::Int(2)]));
        instance.insert_fact(g, Tuple::from([Value::Int(2), Value::Int(3)]));

        let dir = std::env::temp_dir().join("unchained-fuzz-corpus-test");
        let repro = Repro {
            stem: "positive-s0-p0".into(),
            program: program.clone(),
            instance: instance.clone(),
            header: vec![
                "campaign: positive".into(),
                "run seed: 17".into(),
                "divergence: a vs b".into(),
            ],
        };
        let (dl, _) = repro.write(&dir, &interner).unwrap();

        let mut interner2 = Interner::new();
        let loaded = load(&dl, &mut interner2).unwrap();
        assert_eq!(loaded.campaign, Some(Campaign::Positive));
        assert_eq!(loaded.run_seed, Some(17));
        assert_eq!(loaded.program.rules.len(), 2);
        assert_eq!(loaded.instance.fact_count(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
