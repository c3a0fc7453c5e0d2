//! Saving and loading trained teams.
//!
//! A team file is a small JSON header (architecture spec, expert count,
//! format version) followed by each expert's parameters in the workspace
//! wire format — the same bytes a network deployment ships, so a file
//! written here can be streamed to an edge node unchanged.

use crate::exchange::decode_tensor;
use crate::team::TeamNet;
use std::error::Error;
use std::fmt;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;
use teamnet_net::codec::encode_f32s;
use teamnet_nn::ModelSpec;
use teamnet_tensor::Tensor;

/// Magic bytes opening a team file.
const MAGIC: &[u8; 8] = b"TEAMNET1";

/// Error reading or writing a team file.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file is not a valid team file.
    Format(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o failure: {e}"),
            PersistError::Format(msg) => write!(f, "malformed team file: {msg}"),
        }
    }
}

impl Error for PersistError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Format(_) => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

#[derive(serde::Serialize, serde::Deserialize)]
struct Header {
    spec: ModelSpec,
    experts: usize,
    tensors_per_expert: usize,
    #[serde(default)]
    calibration: Vec<f32>,
}

fn write_chunk(w: &mut impl Write, bytes: &[u8]) -> Result<(), PersistError> {
    w.write_all(&(bytes.len() as u64).to_le_bytes())?;
    w.write_all(bytes)?;
    Ok(())
}

fn read_chunk(r: &mut impl Read) -> Result<Vec<u8>, PersistError> {
    let mut len_bytes = [0u8; 8];
    r.read_exact(&mut len_bytes)?;
    let len = u64::from_le_bytes(len_bytes) as usize;
    if len > 1 << 32 {
        return Err(PersistError::Format(format!(
            "implausible chunk length {len}"
        )));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

/// Writes a trained team to `path`.
///
/// # Errors
///
/// Returns I/O failures.
pub fn save_team(team: &mut TeamNet, path: impl AsRef<Path>) -> Result<(), PersistError> {
    let mut w = BufWriter::new(File::create(path)?);
    let states = team.expert_states();
    let header = Header {
        spec: team.spec().clone(),
        experts: states.len(),
        tensors_per_expert: states.first().map_or(0, Vec::len),
        calibration: team.calibration().to_vec(),
    };
    w.write_all(MAGIC)?;
    let header_json = serde_json::to_vec(&header)
        .map_err(|e| PersistError::Format(format!("header serialization: {e}")))?;
    write_chunk(&mut w, &header_json)?;
    for state in &states {
        for tensor in state {
            write_chunk(&mut w, &encode_f32s(tensor.dims(), tensor.data()))?;
        }
    }
    w.flush()?;
    Ok(())
}

/// Loads a team previously written by [`save_team`].
///
/// # Errors
///
/// Returns [`PersistError::Format`] for wrong magic, truncated chunks or
/// state/spec mismatches, and I/O failures otherwise.
pub fn load_team(path: impl AsRef<Path>) -> Result<TeamNet, PersistError> {
    let mut r = BufReader::new(File::open(path)?);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(PersistError::Format("bad magic bytes".to_string()));
    }
    let header: Header = serde_json::from_slice(&read_chunk(&mut r)?)
        .map_err(|e| PersistError::Format(format!("header: {e}")))?;
    if header.experts == 0 {
        return Err(PersistError::Format(
            "team file holds no experts".to_string(),
        ));
    }
    let mut states = Vec::with_capacity(header.experts);
    for _ in 0..header.experts {
        let mut state = Vec::with_capacity(header.tensors_per_expert);
        for _ in 0..header.tensors_per_expert {
            let tensor = decode_tensor(&read_chunk(&mut r)?)
                .map_err(|e| PersistError::Format(e.to_string()))?;
            state.push(tensor);
        }
        states.push(state);
    }
    let mut team = TeamNet::from_states(header.spec, &states);
    if header.calibration.len() == team.k() {
        team.set_calibration(header.calibration);
    }
    Ok(team)
}

/// Extracts a single expert's `(spec, state)` from a team file — what a
/// worker node loads when each device holds only its own expert.
///
/// # Errors
///
/// Same as [`load_team`], plus a format error for an out-of-range index.
pub fn load_expert(
    path: impl AsRef<Path>,
    expert: usize,
) -> Result<(ModelSpec, Vec<Tensor>), PersistError> {
    let mut team = load_team(&path)?;
    if expert >= team.k() {
        return Err(PersistError::Format(format!(
            "expert {expert} out of range for a {}-expert team",
            team.k()
        )));
    }
    let state = teamnet_nn::state_vec(team.expert_mut(expert));
    Ok((team.spec().clone(), state))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expert::build_expert;
    use teamnet_tensor::Tensor as T;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("teamnet-persist-{}-{name}", std::process::id()))
    }

    fn small_team() -> TeamNet {
        let spec = ModelSpec::mlp(2, 12);
        let experts = (0..3).map(|i| build_expert(&spec, i)).collect();
        TeamNet::from_experts(spec, experts)
    }

    #[test]
    fn save_load_roundtrip_preserves_predictions() {
        let path = tmp("roundtrip.team");
        let mut team = small_team();
        let x = T::rand_uniform(
            [2, 1, 28, 28],
            0.0,
            1.0,
            &mut <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0),
        );
        team.set_calibration(vec![1.2, 0.9, 0.9]);
        let before = team.predict(&x);
        save_team(&mut team, &path).unwrap();
        let mut loaded = load_team(&path).unwrap();
        assert_eq!(loaded.k(), 3);
        assert_eq!(loaded.calibration(), &[1.2, 0.9, 0.9]);
        assert_eq!(loaded.predict(&x), before);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_expert_extracts_one() {
        let path = tmp("expert.team");
        let mut team = small_team();
        save_team(&mut team, &path).unwrap();
        let (spec, state) = load_expert(&path, 1).unwrap();
        assert_eq!(&spec, team.spec());
        let mut rebuilt = build_expert(&spec, 99);
        teamnet_nn::load_state(&mut rebuilt, &state);
        let x = T::ones([1, 1, 28, 28]);
        use teamnet_nn::{Layer, Mode};
        let a = rebuilt.forward(&x, Mode::Eval);
        let b = team.expert_mut(1).forward(&x, Mode::Eval);
        assert_eq!(a, b);
        assert!(load_expert(&path, 9).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_wrong_magic_and_truncation() {
        let path = tmp("bad.team");
        std::fs::write(&path, b"NOTATEAM").unwrap();
        assert!(matches!(load_team(&path), Err(PersistError::Format(_))));

        let mut team = small_team();
        save_team(&mut team, &path).unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(matches!(load_team(&path), Err(PersistError::Io(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            load_team("/definitely/not/here.team"),
            Err(PersistError::Io(_))
        ));
    }
}
