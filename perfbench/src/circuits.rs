//! Workload circuits, generated from `glitch-arith` at set-up and written
//! as BLIF, so the program under test reads them exactly as a user's file.

use std::path::{Path, PathBuf};

use glitch_arith::{AdderStyle, ArrayMultiplier, WallaceTreeMultiplier};
use glitch_io::{emit_blif, parse_netlist, Format, GateLibrary};
use glitch_netlist::Netlist;
use glitch_serve::json::JsonObject;

/// The generator behind a workload circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Carry-save array multiplier (the paper's Table 1 circuit).
    Array,
    /// Wallace-tree multiplier.
    Wallace,
}

/// One generated circuit: where it was written and what it parses to.
pub struct Circuit {
    /// Short label, e.g. `mult16` or `wallace16`.
    pub label: String,
    /// The BLIF file handed to the program.
    pub path: PathBuf,
    /// The netlist parsed back from `path`, as the program sees it.
    pub netlist: Netlist,
    /// Combinational depth in cells.
    pub depth: usize,
}

impl Circuit {
    /// `path` as the string the CLI and the daemon receive.
    pub fn file(&self) -> String {
        self.path.display().to_string()
    }

    /// The identity recorded in every result: a changed generator shows
    /// up as a changed workload, not as a speed-up.
    pub fn identity_json(&self) -> String {
        JsonObject::new()
            .str("label", &self.label)
            .str(
                "fingerprint",
                &format!("{:016x}", self.netlist.fingerprint()),
            )
            .usize("cells", self.netlist.cell_count())
            .usize("depth", self.depth)
            .render()
    }
}

/// Generates a `bits`×`bits` multiplier of `family`, writes it under
/// `dir` (the file name carries the workload seed, so concurrent or
/// stale runs never share a file) and parses it back.
///
/// # Errors
///
/// Returns a message if the file cannot be written or does not parse.
pub fn generate(family: Family, bits: usize, seed: u64, dir: &Path) -> Result<Circuit, String> {
    let (label, netlist) = match family {
        Family::Array => (
            format!("mult{bits}"),
            ArrayMultiplier::new(bits, AdderStyle::CompoundCell).netlist,
        ),
        Family::Wallace => (
            format!("wallace{bits}"),
            WallaceTreeMultiplier::new(bits, AdderStyle::CompoundCell).netlist,
        ),
    };
    let path = dir.join(format!("{label}-s{seed}.blif"));
    std::fs::write(&path, emit_blif(&netlist))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let netlist = load(&path)?;
    let depth = netlist
        .combinational_depth()
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(Circuit {
        label,
        path,
        netlist,
        depth,
    })
}

/// Parses a BLIF file with the default gate library.
///
/// # Errors
///
/// Returns a message naming the file on read or parse failure.
pub fn load(path: &Path) -> Result<Netlist, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_text(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Parses BLIF text with the default gate library (the CLI's `--tech`
/// default).
///
/// # Errors
///
/// Forwards the reader's error message.
pub fn parse_text(text: &str) -> Result<Netlist, String> {
    parse_netlist(text, Format::Blif, &GateLibrary::default()).map_err(|e| e.to_string())
}
