//! Shared column backing: slices that borrow a refcounted allocation.
//!
//! The snapshot load path views 100+ MB of column data directly inside
//! the snapshot file image instead of copying it out — [`SharedSlice`]
//! is the piece that makes those views safe to hold in long-lived
//! structures: it carries an `Arc` to the owning allocation, so a
//! restored table keeps the snapshot buffer alive exactly as long as any
//! column still references it. [`ColumnBuf`] then lets [`Column`] hold
//! either kind of backing — owned and growable (the build/ingest path)
//! or shared and immutable (the restore path) — behind one `&[T]` view,
//! with copy-on-write promotion if a shared column is ever mutated.
//!
//! [`Column`]: crate::Column

use std::any::Any;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use crate::encoding::{Codable, Encoded, EncodedBuf, RunsView};

/// An immutable `&[T]` view whose backing memory is kept alive by a
/// shared owner. Cloning clones the `Arc`, not the data.
pub struct SharedSlice<T> {
    /// Keeps the backing allocation alive; never read through.
    _owner: Arc<dyn Any + Send + Sync>,
    ptr: *const T,
    len: usize,
}

impl<T> SharedSlice<T> {
    /// View `slice` with its lifetime guaranteed by `owner`.
    ///
    /// # Safety
    ///
    /// `slice` must point into memory owned by `owner`, and that memory
    /// must stay valid, immutable and at the same address for as long as
    /// `owner` (or any clone of it) is alive. In particular the owner
    /// must not be interior-mutable in a way that moves or frees the
    /// viewed range.
    pub unsafe fn new(owner: Arc<dyn Any + Send + Sync>, slice: &[T]) -> Self {
        SharedSlice { _owner: owner, ptr: slice.as_ptr(), len: slice.len() }
    }
}

// Safety: the view is immutable, so sharing/sending it across threads is
// exactly as safe as sharing `&[T]` plus an `Arc` handle.
unsafe impl<T: Send + Sync> Send for SharedSlice<T> {}
unsafe impl<T: Send + Sync> Sync for SharedSlice<T> {}

impl<T> Deref for SharedSlice<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        // Safety: `new`'s contract guarantees ptr/len stay valid while
        // `_owner` is held.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl<T> Clone for SharedSlice<T> {
    fn clone(&self) -> Self {
        SharedSlice { _owner: Arc::clone(&self._owner), ptr: self.ptr, len: self.len }
    }
}

impl<T: fmt::Debug> fmt::Debug for SharedSlice<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// A column's backing store: an owned, growable `Vec<T>` (built data), a
/// [`SharedSlice`] into a refcounted allocation (restored data), or an
/// [`EncodedBuf`] holding an RLE/FOR payload (frozen data, see
/// [`crate::encoding`]).
///
/// Reads go through `Deref<Target = [T]>`, identical for all variants —
/// an encoded backing materializes its shared decode cache on first
/// dereference, exactly once however many clones exist. Mutation goes
/// through [`ColumnBuf::to_mut`], which promotes a shared view or an
/// encoded payload to an owned copy first — so the backing kind is
/// invisible to correctness and only ever an optimization. Kernels that
/// can run on the encoded form ask for it explicitly via
/// [`ColumnBuf::encoded`] / [`ColumnBuf::runs`] instead of dereferencing.
#[derive(Clone, Debug)]
pub enum ColumnBuf<T: Codable> {
    /// Growable, exclusively owned data.
    Owned(Vec<T>),
    /// Immutable view into a shared allocation.
    Shared(SharedSlice<T>),
    /// RLE/FOR-encoded payload with a lazy shared decode cache.
    Encoded(EncodedBuf<T>),
}

impl<T: Codable> Deref for ColumnBuf<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        match self {
            ColumnBuf::Owned(v) => v,
            ColumnBuf::Shared(s) => s,
            ColumnBuf::Encoded(e) => e.decoded(),
        }
    }
}

impl<T: Codable> ColumnBuf<T> {
    /// An owned copy of the values with room for `extra` more, so that
    /// appending them copies nothing again.
    pub fn with_room(&self, extra: usize) -> ColumnBuf<T> {
        let mut values = Vec::with_capacity(self.len() + extra);
        values.extend_from_slice(self);
        ColumnBuf::Owned(values)
    }

    /// Mutable access, promoting a shared view or an encoded payload to
    /// an owned copy first (copy-on-write / decode-on-write).
    pub fn to_mut(&mut self) -> &mut Vec<T> {
        match self {
            ColumnBuf::Shared(s) => *self = ColumnBuf::Owned(s.to_vec()),
            // `decoded()` fills the shared cache (at most one decode per
            // payload, ever); the owned copy then detaches from it.
            ColumnBuf::Encoded(e) => *self = ColumnBuf::Owned(e.decoded().to_vec()),
            ColumnBuf::Owned(_) => {}
        }
        match self {
            ColumnBuf::Owned(v) => v,
            _ => unreachable!("just promoted"),
        }
    }

    /// Number of rows, without decoding an encoded backing.
    pub fn row_count(&self) -> usize {
        match self {
            ColumnBuf::Owned(v) => v.len(),
            ColumnBuf::Shared(s) => s.len(),
            ColumnBuf::Encoded(e) => e.len(),
        }
    }

    /// The encoded payload, if this buffer holds one.
    #[inline]
    pub fn encoded(&self) -> Option<&Encoded<T>> {
        match self {
            ColumnBuf::Encoded(e) => Some(e.encoded()),
            _ => None,
        }
    }

    /// The RLE runs, if this buffer is run-length encoded.
    #[inline]
    pub fn runs(&self) -> Option<RunsView<'_, T>> {
        self.encoded().and_then(Encoded::runs)
    }

    /// Physical bytes a sequential scan of this buffer touches: the
    /// encoded payload size when encoded, `len * size_of::<T>()` when
    /// plain. (If the decode cache has already materialized, reads go
    /// through the plain cache — callers that dereference should count
    /// plain bytes instead.)
    pub fn physical_bytes(&self) -> usize {
        match self {
            ColumnBuf::Owned(v) => v.len() * std::mem::size_of::<T>(),
            ColumnBuf::Shared(s) => s.len() * std::mem::size_of::<T>(),
            ColumnBuf::Encoded(e) => e.encoded().encoded_bytes(),
        }
    }

    /// Re-encode the buffer for a freeze under `mode`, replacing a plain
    /// backing with an encoded one when [`crate::encoding::choose`]
    /// picks a format. Already-encoded buffers are left untouched so a
    /// thawed snapshot re-freezes byte-identically.
    pub fn encode_in_place(&mut self, mode: crate::encoding::EncodingMode) {
        use crate::encoding::{choose, encode_for, encode_rle, Choice};
        if matches!(self, ColumnBuf::Encoded(_)) {
            return;
        }
        let enc = match choose(self, mode) {
            Choice::Plain => return,
            Choice::Rle => encode_rle(self),
            Choice::For => encode_for(self),
        };
        *self = ColumnBuf::Encoded(EncodedBuf::new(enc));
    }
}

impl<T: Codable> From<Vec<T>> for ColumnBuf<T> {
    fn from(v: Vec<T>) -> Self {
        ColumnBuf::Owned(v)
    }
}

impl<T: Codable> From<SharedSlice<T>> for ColumnBuf<T> {
    fn from(s: SharedSlice<T>) -> Self {
        ColumnBuf::Shared(s)
    }
}

impl<T: Codable> From<EncodedBuf<T>> for ColumnBuf<T> {
    fn from(e: EncodedBuf<T>) -> Self {
        ColumnBuf::Encoded(e)
    }
}

impl<T: Codable> Default for ColumnBuf<T> {
    fn default() -> Self {
        ColumnBuf::Owned(Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared_from(owner: Arc<Vec<u32>>) -> SharedSlice<u32> {
        let slice: &[u32] = &owner;
        // Safety: the slice lives inside the Arc'd Vec, which SharedSlice
        // keeps alive; Vec data never moves after construction.
        unsafe { SharedSlice::new(Arc::clone(&owner) as Arc<dyn Any + Send + Sync>, slice) }
    }

    #[test]
    fn shared_reads_like_a_slice_and_outlives_its_handle() {
        let owner = Arc::new(vec![10u32, 20, 30]);
        let s = shared_from(Arc::clone(&owner));
        drop(owner); // the view keeps the allocation alive on its own
        assert_eq!(&*s, &[10, 20, 30]);
        let s2 = s.clone();
        drop(s);
        assert_eq!(s2[1], 20);
    }

    #[test]
    fn to_mut_promotes_shared_to_owned_copy() {
        let owner = Arc::new(vec![1u32, 2, 3]);
        let mut buf: ColumnBuf<u32> = shared_from(Arc::clone(&owner)).into();
        buf.to_mut().push(4);
        assert_eq!(&*buf, &[1, 2, 3, 4]);
        assert_eq!(&*owner, &[1, 2, 3], "promotion must not touch the shared backing");
        assert!(matches!(buf, ColumnBuf::Owned(_)));
    }

    #[test]
    fn encoded_buf_derefs_lazily_and_promotes_on_write() {
        use crate::encoding::encode_rle;
        let data: Vec<u32> = (0..2000).map(|i| i / 100).collect();
        let enc = EncodedBuf::new(encode_rle(&data));
        let mut buf: ColumnBuf<u32> = enc.clone().into();
        let reader = buf.clone();
        assert_eq!(buf.row_count(), 2000);
        assert!(buf.physical_bytes() < 2000 * 4, "rle payload must be smaller than plain");
        assert!(!enc.is_decoded(), "row_count and physical_bytes must not decode");
        // `to_mut` decodes through the shared cache, so the clone's deref
        // finds it filled: one decode across promotion + deref.
        buf.to_mut().push(99);
        assert!(enc.is_decoded(), "to_mut must fill the shared decode cache");
        assert_eq!(&*reader, &data[..]);
        assert_eq!(buf.row_count(), 2001);
        assert_eq!(buf[2000], 99);
        assert!(matches!(buf, ColumnBuf::Owned(_)));
        // The encoded clone is untouched by the promotion.
        assert_eq!(reader.row_count(), 2000);
        assert!(matches!(reader, ColumnBuf::Encoded(_)));
    }
}
