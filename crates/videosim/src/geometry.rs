//! Image-plane geometry: axis-aligned boxes and IoU matching.

/// Axis-aligned bounding box in pixel coordinates, `x1 <= x2`, `y1 <= y2`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BBox {
    /// Left edge.
    pub x1: f32,
    /// Top edge.
    pub y1: f32,
    /// Right edge.
    pub x2: f32,
    /// Bottom edge.
    pub y2: f32,
}

impl BBox {
    /// Construct from corners, normalizing the corner order.
    pub fn new(x1: f32, y1: f32, x2: f32, y2: f32) -> Self {
        BBox {
            x1: x1.min(x2),
            y1: y1.min(y2),
            x2: x1.max(x2),
            y2: y1.max(y2),
        }
    }

    /// Construct from a centre point and full width/height.
    pub fn from_center(cx: f32, cy: f32, w: f32, h: f32) -> Self {
        let hw = w.abs() * 0.5;
        let hh = h.abs() * 0.5;
        BBox {
            x1: cx - hw,
            y1: cy - hh,
            x2: cx + hw,
            y2: cy + hh,
        }
    }

    /// Box width.
    pub(crate) fn width(&self) -> f32 {
        self.x2 - self.x1
    }

    /// Box height.
    pub(crate) fn height(&self) -> f32 {
        self.y2 - self.y1
    }

    /// Box area (0 for degenerate boxes).
    pub fn area(&self) -> f32 {
        self.width().max(0.0) * self.height().max(0.0)
    }

    /// Intersection box, if the boxes overlap with positive area.
    pub(crate) fn intersect(&self, other: &BBox) -> Option<BBox> {
        let x1 = self.x1.max(other.x1);
        let y1 = self.y1.max(other.y1);
        let x2 = self.x2.min(other.x2);
        let y2 = self.y2.min(other.y2);
        if x1 < x2 && y1 < y2 {
            Some(BBox { x1, y1, x2, y2 })
        } else {
            None
        }
    }

    /// Intersection-over-union in `[0, 1]`.
    ///
    /// The discriminator follows SORT and matches detections to tracks by
    /// IoU threshold (paper §II-B).
    pub(crate) fn iou(&self, other: &BBox) -> f32 {
        match self.intersect(other) {
            None => 0.0,
            Some(i) => {
                let ia = i.area();
                let ua = self.area() + other.area() - ia;
                if ua <= 0.0 {
                    0.0
                } else {
                    ia / ua
                }
            }
        }
    }

    /// Clamp the box into the image rectangle `[0,w] x [0,h]`, preserving
    /// at least a 1-pixel extent so fully off-screen objects remain
    /// representable at the border.
    pub fn clamp_to(&self, w: f32, h: f32) -> BBox {
        let x1 = self.x1.clamp(0.0, w - 1.0);
        let y1 = self.y1.clamp(0.0, h - 1.0);
        let x2 = self.x2.clamp(x1 + 1.0, w);
        let y2 = self.y2.clamp(y1 + 1.0, h);
        BBox { x1, y1, x2, y2 }
    }

    /// Translate by `(dx, dy)`.
    pub fn translated(&self, dx: f32, dy: f32) -> BBox {
        BBox {
            x1: self.x1 + dx,
            y1: self.y1 + dy,
            x2: self.x2 + dx,
            y2: self.y2 + dy,
        }
    }
}

/// Greedy one-to-one IoU assignment between two box lists.
///
/// Returns `(pairs, unmatched_a, unmatched_b)` where `pairs` holds
/// `(index_in_a, index_in_b, iou)` sorted by descending IoU. This is the
/// simple IoU-matching step that SORT-style trackers use between adjacent
/// frames.
#[allow(clippy::type_complexity)]
pub fn greedy_iou_match(
    a: &[BBox],
    b: &[BBox],
    min_iou: f32,
) -> (Vec<(usize, usize, f32)>, Vec<usize>, Vec<usize>) {
    let mut cands: Vec<(usize, usize, f32)> = Vec::new();
    for (i, ba) in a.iter().enumerate() {
        for (j, bb) in b.iter().enumerate() {
            let v = ba.iou(bb);
            if v >= min_iou {
                cands.push((i, j, v));
            }
        }
    }
    cands.sort_by(|x, y| y.2.partial_cmp(&x.2).expect("IoU is finite"));
    let mut used_a = vec![false; a.len()];
    let mut used_b = vec![false; b.len()];
    let mut pairs = Vec::new();
    for (i, j, v) in cands {
        if !used_a[i] && !used_b[j] {
            used_a[i] = true;
            used_b[j] = true;
            pairs.push((i, j, v));
        }
    }
    let unmatched_a = (0..a.len()).filter(|&i| !used_a[i]).collect();
    let unmatched_b = (0..b.len()).filter(|&j| !used_b[j]).collect();
    (pairs, unmatched_a, unmatched_b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corner_normalization() {
        let b = BBox::new(10.0, 20.0, 5.0, 2.0);
        assert_eq!(b.x1, 5.0);
        assert_eq!(b.y1, 2.0);
        assert_eq!(b.x2, 10.0);
        assert_eq!(b.y2, 20.0);
    }

    #[test]
    fn area_and_center() {
        let b = BBox::new(0.0, 0.0, 4.0, 3.0);
        assert_eq!(b.area(), 12.0);
        let c = BBox::from_center(2.0, 1.5, 4.0, 3.0);
        assert_eq!(c, b);
    }

    #[test]
    fn iou_identical_is_one() {
        let b = BBox::new(3.0, 4.0, 10.0, 12.0);
        assert!((b.iou(&b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn iou_disjoint_is_zero() {
        let a = BBox::new(0.0, 0.0, 1.0, 1.0);
        let b = BBox::new(5.0, 5.0, 6.0, 6.0);
        assert_eq!(a.iou(&b), 0.0);
        assert!(a.intersect(&b).is_none());
    }

    #[test]
    fn iou_half_overlap() {
        // Two 2x1 boxes overlapping in a 1x1 square: IoU = 1/3.
        let a = BBox::new(0.0, 0.0, 2.0, 1.0);
        let b = BBox::new(1.0, 0.0, 3.0, 1.0);
        assert!((a.iou(&b) - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn iou_is_symmetric() {
        let a = BBox::new(0.0, 0.0, 10.0, 10.0);
        let b = BBox::new(3.0, -2.0, 12.0, 8.0);
        assert!((a.iou(&b) - b.iou(&a)).abs() < 1e-7);
    }

    #[test]
    fn clamp_keeps_box_in_image() {
        let b = BBox::new(-50.0, -20.0, 3000.0, 2000.0).clamp_to(1920.0, 1080.0);
        assert!(b.x1 >= 0.0 && b.y1 >= 0.0);
        assert!(b.x2 <= 1920.0 && b.y2 <= 1080.0);
        assert!(b.area() > 0.0);
    }

    #[test]
    fn clamp_fully_offscreen_still_valid() {
        let b = BBox::new(-500.0, -500.0, -400.0, -450.0).clamp_to(1920.0, 1080.0);
        assert!(b.area() >= 1.0);
    }

    #[test]
    fn greedy_match_pairs_best_first() {
        let a = vec![
            BBox::new(0.0, 0.0, 10.0, 10.0),
            BBox::new(100.0, 0.0, 110.0, 10.0),
        ];
        let b = vec![
            BBox::new(1.0, 0.0, 11.0, 10.0),       // good match for a[0]
            BBox::new(102.0, 0.0, 112.0, 10.0),    // good match for a[1]
            BBox::new(500.0, 500.0, 510.0, 510.0), // unmatched
        ];
        let (pairs, ua, ub) = greedy_iou_match(&a, &b, 0.3);
        assert_eq!(pairs.len(), 2);
        assert!(ua.is_empty());
        assert_eq!(ub, vec![2]);
        assert!(pairs.iter().any(|&(i, j, _)| i == 0 && j == 0));
        assert!(pairs.iter().any(|&(i, j, _)| i == 1 && j == 1));
    }

    #[test]
    fn greedy_match_respects_threshold() {
        let a = vec![BBox::new(0.0, 0.0, 10.0, 10.0)];
        let b = vec![BBox::new(9.0, 9.0, 19.0, 19.0)]; // IoU tiny
        let (pairs, ua, ub) = greedy_iou_match(&a, &b, 0.3);
        assert!(pairs.is_empty());
        assert_eq!(ua, vec![0]);
        assert_eq!(ub, vec![0]);
    }

    #[test]
    fn greedy_match_is_one_to_one() {
        // Two boxes in `a` both overlap one box in `b`; only one may claim it.
        let a = vec![
            BBox::new(0.0, 0.0, 10.0, 10.0),
            BBox::new(2.0, 0.0, 12.0, 10.0),
        ];
        let b = vec![BBox::new(1.0, 0.0, 11.0, 10.0)];
        let (pairs, ua, _) = greedy_iou_match(&a, &b, 0.1);
        assert_eq!(pairs.len(), 1);
        assert_eq!(ua.len(), 1);
    }
}
