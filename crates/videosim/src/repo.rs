//! Repository layout: clips and the per-clip chunking.
//!
//! A repository is an ordered collection of clips (video files); frames are
//! addressed by a global index over the concatenation. The
//! [`Chunking`] type itself lives in
//! `exsample-core` (it is what the bandit operates on); this module adds
//! the constructor that needs clip layout: one chunk per clip (the BDD
//! setting).

use exsample_core::chunking::Chunking;

/// One video file.
#[derive(Debug, Clone, PartialEq)]
pub struct Clip {
    /// Human-readable name (file stem).
    pub name: String,
    /// Number of frames.
    pub frames: u64,
    /// Frames per second.
    pub fps: f64,
}

/// An ordered collection of clips, addressed by global frame index.
#[derive(Debug, Clone)]
pub struct VideoRepo {
    /// `offsets[i]` = global index of the first frame of clip `i`;
    /// final entry = total frames.
    offsets: Vec<u64>,
}

impl VideoRepo {
    /// Build a repository from clips.
    ///
    /// # Panics
    /// Panics if any clip is empty.
    pub fn new(clips: Vec<Clip>) -> Self {
        let mut offsets = Vec::with_capacity(clips.len() + 1);
        let mut acc = 0u64;
        offsets.push(0);
        for c in &clips {
            assert!(c.frames > 0, "clip {} has no frames", c.name);
            acc += c.frames;
            offsets.push(acc);
        }
        VideoRepo { offsets }
    }

    /// One chunk per clip (the BDD setting: "we are forced to use each
    /// small clip as an individual chunk").
    pub fn chunking_per_clip(&self) -> Chunking {
        Chunking::from_bounds(self.offsets.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` clips of `frames` frames each.
    fn uniform(n: usize, frames: u64, fps: f64) -> VideoRepo {
        let clip = |i| Clip {
            name: format!("clip{i:05}"),
            frames,
            fps,
        };
        VideoRepo::new((0..n).map(clip).collect())
    }

    #[test]
    fn per_clip_chunking() {
        let repo = uniform(4, 25, 30.0);
        let c = repo.chunking_per_clip();
        assert_eq!(c.num_chunks(), 4);
        for j in 0..4 {
            assert_eq!(c.range(j), j as u64 * 25..(j as u64 + 1) * 25);
        }
    }

    #[test]
    fn uniform_repo_layout() {
        let repo = uniform(3, 100, 25.0);
        assert_eq!(repo.offsets, [0, 100, 200, 300]);
    }
}
