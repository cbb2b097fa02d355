//! Process-local storage for a rectangular piece of a global 2-D array.

use crate::rect::Rect;
use std::fmt;
use std::sync::Arc;

/// The piece of a global `f64` array owned by one process: a dense, row-major
/// buffer covering the global rectangle `owned`.
///
/// All indexing is in *global* coordinates; the array translates to local
/// offsets internally. Sub-rectangle pack/unpack are the primitives the
/// redistribution plan (and the framework's buffering memcpys) are built on.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalArray {
    owned: Rect,
    data: Vec<f64>,
}

impl LocalArray {
    /// Creates a zero-filled local array covering `owned`.
    pub fn zeros(owned: Rect) -> Self {
        LocalArray {
            owned,
            data: vec![0.0; owned.cells()],
        }
    }

    /// Creates a local array covering `owned` filled by `f(row, col)` in
    /// global coordinates.
    pub fn from_fn(owned: Rect, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(owned.cells());
        for row in owned.row0..owned.row_end() {
            for col in owned.col0..owned.col_end() {
                data.push(f(row, col));
            }
        }
        LocalArray { owned, data }
    }

    /// The global rectangle this piece covers.
    #[inline]
    pub fn owned(&self) -> Rect {
        self.owned
    }

    /// The raw row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Number of locally stored cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the piece is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    fn offset(&self, row: usize, col: usize) -> usize {
        debug_assert!(self.owned.contains(row, col), "({row},{col}) not owned");
        (row - self.owned.row0) * self.owned.cols + (col - self.owned.col0)
    }

    /// Reads the value at global cell `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds via `debug_assert`, in release via slice
    /// bounds) if the cell is not owned.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        self.data[self.offset(row, col)]
    }

    /// Writes the value at global cell `(row, col)`.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        let off = self.offset(row, col);
        self.data[off] = value;
    }

    /// Copies the sub-rectangle `rect` (global coordinates, must be owned)
    /// into a fresh contiguous row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `rect` is not fully contained in the owned rectangle.
    pub fn pack(&self, rect: &Rect) -> Vec<f64> {
        assert!(
            self.owned.contains_rect(rect),
            "pack rect {rect} not within owned {}",
            self.owned
        );
        let mut out = Vec::with_capacity(rect.cells());
        for row in rect.row0..rect.row_end() {
            let start = self.offset(row, rect.col0);
            out.extend_from_slice(&self.data[start..start + rect.cols]);
        }
        out
    }

    /// Copies a contiguous row-major buffer produced by [`LocalArray::pack`]
    /// into the sub-rectangle `rect` (global coordinates, must be owned).
    ///
    /// # Panics
    ///
    /// Panics if `rect` is not owned or `src` has the wrong length.
    pub fn unpack(&mut self, rect: &Rect, src: &[f64]) {
        assert!(
            self.owned.contains_rect(rect),
            "unpack rect {rect} not within owned {}",
            self.owned
        );
        assert_eq!(src.len(), rect.cells(), "unpack buffer length mismatch");
        for (i, row) in (rect.row0..rect.row_end()).enumerate() {
            let dst = self.offset(row, rect.col0);
            self.data[dst..dst + rect.cols]
                .copy_from_slice(&src[i * rect.cols..(i + 1) * rect.cols]);
        }
    }

    /// Sum of all locally stored values (useful for conservation checks).
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }
}

impl fmt::Display for LocalArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LocalArray{} ({} cells)", self.owned, self.len())
    }
}

/// An immutable, reference-counted piece of a global 2-D array: the
/// zero-copy payload of the threaded fabric's data plane.
///
/// A framework buffer is written once (the paper's buffering memcpy, see
/// [`SharedArray::copy_from`]) and then *shared* — across every connection
/// of the exporting region, every piece sent to an importer rank, every
/// buddy-help answer and every retransmit. Cloning a `SharedArray` clones
/// an [`Arc`], never the cells, so one exported object costs exactly one
/// allocation no matter how many consumers it fans out to. Consumers read
/// sub-rectangles straight out of the shared buffer with
/// [`SharedArray::copy_into`].
#[derive(Debug, Clone, PartialEq)]
pub struct SharedArray {
    owned: Rect,
    data: Arc<[f64]>,
}

impl SharedArray {
    /// Buffers a local piece: the one physical memcpy an export pays.
    pub fn copy_from(src: &LocalArray) -> Self {
        SharedArray {
            owned: src.owned(),
            data: Arc::from(src.as_slice()),
        }
    }

    /// Overwrites this buffer with `src` in place — the buffering memcpy
    /// without an allocation — when nobody else can see the overwrite:
    /// this is the buffer's only handle and `src` covers the same
    /// rectangle. Returns whether it did; if not, nothing changed and the
    /// caller copies into a fresh buffer with [`SharedArray::copy_from`].
    pub fn refill(&mut self, src: &LocalArray) -> bool {
        if self.owned != src.owned() {
            return false;
        }
        match Arc::get_mut(&mut self.data) {
            Some(data) => {
                data.copy_from_slice(src.as_slice());
                true
            }
            None => false,
        }
    }

    /// Rebuilds a piece from its rectangle and row-major values — the
    /// receive side of a wire transfer. The `Arc` becomes the piece as it
    /// is: no copy, no allocation. Returns `None` if the value count does
    /// not cover the rectangle.
    pub fn from_parts(owned: Rect, data: Arc<[f64]>) -> Option<Self> {
        if Some(data.len()) != owned.rows.checked_mul(owned.cols) {
            return None;
        }
        Some(SharedArray { owned, data })
    }

    /// The global rectangle this piece covers.
    #[inline]
    pub fn owned(&self) -> Rect {
        self.owned
    }

    /// The raw row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Number of stored cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the piece is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Whether two handles share one underlying buffer (payload-sharing
    /// tests assert this across connections and retransmits).
    #[inline]
    pub fn ptr_eq(a: &SharedArray, b: &SharedArray) -> bool {
        Arc::ptr_eq(&a.data, &b.data)
    }

    /// Number of live handles on the underlying buffer.
    #[inline]
    pub fn strong_count(&self) -> usize {
        Arc::strong_count(&self.data)
    }

    /// Copies the sub-rectangle `rect` (global coordinates, must be
    /// covered by this piece *and* owned by `dest`) into `dest` — the
    /// importer-side half of a redistribution transfer, reading straight
    /// from the shared buffer with no intermediate packing.
    ///
    /// # Panics
    ///
    /// Panics if `rect` is not contained in both rectangles.
    pub fn copy_into(&self, rect: &Rect, dest: &mut LocalArray) {
        assert!(
            self.owned.contains_rect(rect),
            "copy rect {rect} not within shared piece {}",
            self.owned
        );
        let dest_owned = dest.owned();
        assert!(
            dest_owned.contains_rect(rect),
            "copy rect {rect} not within destination {dest_owned}"
        );
        for row in rect.row0..rect.row_end() {
            let src = (row - self.owned.row0) * self.owned.cols + (rect.col0 - self.owned.col0);
            let dst = (row - dest_owned.row0) * dest_owned.cols + (rect.col0 - dest_owned.col0);
            dest.as_mut_slice()[dst..dst + rect.cols]
                .copy_from_slice(&self.data[src..src + rect.cols]);
        }
    }
}

impl fmt::Display for SharedArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SharedArray{} ({} cells)", self.owned, self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_and_get() {
        let a = LocalArray::from_fn(Rect::new(2, 3, 2, 2), |r, c| (r * 10 + c) as f64);
        assert_eq!(a.get(2, 3), 23.0);
        assert_eq!(a.get(2, 4), 24.0);
        assert_eq!(a.get(3, 3), 33.0);
        assert_eq!(a.get(3, 4), 34.0);
        assert_eq!(a.len(), 4);
    }

    /// A refill overwrites in place only what nobody else can see: a
    /// shared buffer, or a source of another rectangle, is left alone.
    #[test]
    fn refill_overwrites_only_an_unshared_buffer_of_the_same_rectangle() {
        let owned = Rect::new(1, 2, 2, 3);
        let mut buf = SharedArray::copy_from(&LocalArray::zeros(owned));
        let next = LocalArray::from_fn(owned, |r, c| (r * 10 + c) as f64);
        let reader = buf.clone();
        assert!(!buf.refill(&next), "a reader still holds the buffer");
        assert!(reader.as_slice().iter().all(|&v| v == 0.0));
        drop(reader);
        let before = buf.as_slice().as_ptr();
        assert!(buf.refill(&next));
        assert_eq!(buf.as_slice(), next.as_slice());
        assert_eq!(buf.as_slice().as_ptr(), before, "same memory");
        assert!(!buf.refill(&LocalArray::zeros(Rect::new(1, 2, 3, 2))));
        assert_eq!(buf.as_slice(), next.as_slice());
    }

    /// The receive side keeps the decoder's allocation: the piece reads
    /// through the very `Arc` it was given, and a count that does not
    /// cover the rectangle is refused.
    #[test]
    fn from_parts_keeps_the_arc_it_is_given() {
        let owned = Rect::new(3, 1, 2, 3);
        let data: Arc<[f64]> = (0..6).map(f64::from).collect();
        let ptr = data.as_ptr();
        let piece = SharedArray::from_parts(owned, Arc::clone(&data)).expect("covers");
        assert_eq!(piece.as_slice().as_ptr(), ptr, "same memory");
        assert_eq!(piece.strong_count(), 2, "shared, not copied");
        assert!(SharedArray::from_parts(Rect::new(3, 1, 2, 2), data).is_none());
    }

    #[test]
    fn set_then_get() {
        let mut a = LocalArray::zeros(Rect::new(0, 0, 3, 3));
        a.set(1, 2, 7.5);
        assert_eq!(a.get(1, 2), 7.5);
        assert_eq!(a.get(2, 1), 0.0);
    }

    #[test]
    fn pack_extracts_row_major_subrect() {
        let a = LocalArray::from_fn(Rect::new(0, 0, 4, 4), |r, c| (r * 4 + c) as f64);
        let packed = a.pack(&Rect::new(1, 1, 2, 3));
        assert_eq!(packed, vec![5.0, 6.0, 7.0, 9.0, 10.0, 11.0]);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let src = LocalArray::from_fn(Rect::new(4, 8, 6, 5), |r, c| (r as f64) * 0.5 + c as f64);
        let sub = Rect::new(5, 9, 3, 3);
        let packed = src.pack(&sub);
        let mut dst = LocalArray::zeros(Rect::new(4, 8, 6, 5));
        dst.unpack(&sub, &packed);
        for row in sub.row0..sub.row_end() {
            for col in sub.col0..sub.col_end() {
                assert_eq!(dst.get(row, col), src.get(row, col));
            }
        }
        // Outside the sub-rect, dst is untouched.
        assert_eq!(dst.get(4, 8), 0.0);
    }

    #[test]
    #[should_panic(expected = "not within owned")]
    fn pack_outside_owned_panics() {
        let a = LocalArray::zeros(Rect::new(0, 0, 2, 2));
        a.pack(&Rect::new(1, 1, 2, 2));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn unpack_wrong_length_panics() {
        let mut a = LocalArray::zeros(Rect::new(0, 0, 2, 2));
        a.unpack(&Rect::new(0, 0, 2, 2), &[1.0, 2.0]);
    }

    #[test]
    fn sum_over_cells() {
        let a = LocalArray::from_fn(Rect::new(0, 0, 2, 2), |_, _| 1.25);
        assert_eq!(a.sum(), 5.0);
    }

    #[test]
    fn empty_rect_array() {
        let a = LocalArray::zeros(Rect::EMPTY);
        assert!(a.is_empty());
        assert_eq!(a.pack(&Rect::EMPTY), Vec::<f64>::new());
    }

    #[test]
    fn shared_clone_is_one_buffer() {
        let local = LocalArray::from_fn(Rect::new(0, 0, 4, 4), |r, c| (r * 4 + c) as f64);
        let shared = SharedArray::copy_from(&local);
        let a = shared.clone();
        let b = shared.clone();
        assert!(SharedArray::ptr_eq(&a, &b));
        assert!(SharedArray::ptr_eq(&a, &shared));
        assert_eq!(shared.strong_count(), 3);
        drop(a);
        assert_eq!(shared.strong_count(), 2);
    }

    #[test]
    fn shared_copy_into_matches_pack_unpack() {
        let src = LocalArray::from_fn(Rect::new(4, 8, 6, 5), |r, c| (r as f64) * 0.5 + c as f64);
        let shared = SharedArray::copy_from(&src);
        let sub = Rect::new(5, 9, 3, 3);
        // Destination covers a different (larger) rectangle than the source.
        let mut via_shared = LocalArray::zeros(Rect::new(4, 8, 6, 5));
        shared.copy_into(&sub, &mut via_shared);
        let mut via_pack = LocalArray::zeros(Rect::new(4, 8, 6, 5));
        via_pack.unpack(&sub, &src.pack(&sub));
        assert_eq!(via_shared, via_pack);
        // Outside the sub-rect, the destination is untouched.
        assert_eq!(via_shared.get(4, 8), 0.0);
    }

    #[test]
    fn shared_copy_into_offset_destination() {
        let src = LocalArray::from_fn(Rect::new(0, 0, 4, 8), |r, c| (r * 8 + c) as f64);
        let shared = SharedArray::copy_from(&src);
        let sub = Rect::new(2, 2, 2, 3);
        let mut dest = LocalArray::zeros(Rect::new(2, 0, 2, 8));
        shared.copy_into(&sub, &mut dest);
        for row in sub.row0..sub.row_end() {
            for col in sub.col0..sub.col_end() {
                assert_eq!(dest.get(row, col), src.get(row, col));
            }
        }
        assert_eq!(dest.get(2, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "not within shared piece")]
    fn shared_copy_outside_source_panics() {
        let shared = SharedArray::copy_from(&LocalArray::zeros(Rect::new(0, 0, 2, 2)));
        let mut dest = LocalArray::zeros(Rect::new(0, 0, 4, 4));
        shared.copy_into(&Rect::new(1, 1, 2, 2), &mut dest);
    }
}
