//! The GUI task's display surface (the paper's task 5: "a GUI task that
//! continually displays the tracking result").
//!
//! A terminal program can't open the 2005 kiosk display, so the surface is
//! an ASCII canvas: detections render as the model digit, ground truth as
//! `+` (a detection sitting exactly on ground truth covers its `+`).

use crate::types::{TargetLocation, FRAME_H, FRAME_W};
use crate::video::SyntheticVideo;

/// A character canvas mapped onto the frame coordinate system.
#[derive(Debug, Clone)]
pub struct AsciiCanvas {
    cols: usize,
    rows: usize,
    cells: Vec<u8>,
}

impl AsciiCanvas {
    /// Create an empty canvas (`cols` × `rows` character cells).
    #[must_use]
    pub fn new(cols: usize, rows: usize) -> Self {
        AsciiCanvas {
            cols,
            rows,
            cells: vec![b'.'; cols * rows],
        }
    }

    fn cell_of(&self, x: f32, y: f32) -> Option<(usize, usize)> {
        if !(0.0..FRAME_W as f32).contains(&x) || !(0.0..FRAME_H as f32).contains(&y) {
            return None;
        }
        let cx = (x as usize * self.cols) / FRAME_W;
        let cy = (y as usize * self.rows) / FRAME_H;
        Some((cx.min(self.cols - 1), cy.min(self.rows - 1)))
    }

    /// Plot a character at frame coordinates.
    pub fn plot(&mut self, x: f32, y: f32, ch: u8) {
        if let Some((cx, cy)) = self.cell_of(x, y) {
            self.cells[cy * self.cols + cx] = ch;
        }
    }

    /// Character at frame coordinates (for tests).
    #[must_use]
    pub fn at(&self, x: f32, y: f32) -> Option<u8> {
        self.cell_of(x, y)
            .map(|(cx, cy)| self.cells[cy * self.cols + cx])
    }

    /// Render to a multi-line string.
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = String::with_capacity((self.cols + 1) * self.rows);
        for row in self.cells.chunks(self.cols) {
            s.push_str(&String::from_utf8_lossy(row));
            s.push('\n');
        }
        s
    }
}

/// Render the most recent positive detection of each model against its
/// ground truth. Detections show as `'1'`/`'2'`…, ground truth as `'+'`.
#[must_use]
pub fn render_tracking(
    detections: &[TargetLocation],
    video: &SyntheticVideo,
    cols: usize,
    rows: usize,
) -> String {
    let mut canvas = AsciiCanvas::new(cols, rows);
    let models = video.target_count();
    let mut latest: Vec<Option<&TargetLocation>> = vec![None; models];
    for d in detections.iter().rev() {
        let m = d.model_id as usize;
        if m < models && d.found == 1 && latest[m].is_none() {
            latest[m] = Some(d);
        }
        if latest.iter().all(Option::is_some) {
            break;
        }
    }
    for (m, det) in latest.iter().enumerate() {
        if let Some(d) = det {
            let gt = video.ground_truth(m, d.frame_no);
            canvas.plot(gt.cx as f32, gt.cy as f32, b'+');
            canvas.plot(d.x, d.y, b'1' + m as u8);
        }
    }
    canvas.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canvas_plots_and_renders() {
        let mut c = AsciiCanvas::new(10, 5);
        c.plot(0.0, 0.0, b'A');
        c.plot((FRAME_W - 1) as f32, (FRAME_H - 1) as f32, b'Z');
        let s = c.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].starts_with('A'));
        assert!(lines[4].ends_with('Z'));
    }

    #[test]
    fn out_of_frame_plots_are_ignored() {
        let mut c = AsciiCanvas::new(4, 4);
        c.plot(-5.0, 10.0, b'X');
        c.plot(10.0, 99_999.0, b'X');
        assert!(!c.render().contains('X'));
    }

    #[test]
    fn render_tracking_shows_detection_and_truth() {
        let video = SyntheticVideo::two_person_scene(3);
        let gt = video.ground_truth(0, 42);
        // A perfect detection covers its own '+'; offset it slightly so
        // both glyphs are visible.
        let mut det = TargetLocation::not_found(42, 0);
        det.found = 1;
        det.x = (gt.cx - 100.0).max(0.0) as f32;
        det.y = gt.cy as f32;
        let s = render_tracking(&[det], &video, 64, 16);
        assert!(s.contains('1'), "detection glyph missing:\n{s}");
        assert!(s.contains('+'), "ground-truth glyph missing:\n{s}");
    }

    #[test]
    fn render_tracking_uses_latest_positive_detection() {
        let video = SyntheticVideo::two_person_scene(3);
        let mut old = TargetLocation::not_found(1, 0);
        old.found = 1;
        old.x = 10.0;
        old.y = 10.0;
        let mut newer = TargetLocation::not_found(50, 0);
        newer.found = 1;
        newer.x = 600.0;
        newer.y = 350.0;
        let not_found = TargetLocation::not_found(60, 0);
        let s = render_tracking(&[old, newer, not_found], &video, 64, 16);
        // '1' must be at the newer position (right-bottom), not the old.
        let lines: Vec<&str> = s.lines().collect();
        let pos = lines
            .iter()
            .enumerate()
            .find_map(|(r, l)| l.find('1').map(|c| (r, c)))
            .expect("detection rendered");
        assert!(
            pos.0 > 8 && pos.1 > 32,
            "detection at {pos:?} — stale position used"
        );
    }

    #[test]
    fn empty_detections_render_empty_scene() {
        let video = SyntheticVideo::two_person_scene(3);
        let s = render_tracking(&[], &video, 32, 8);
        assert!(!s.contains('1') && !s.contains('+'));
    }
}
