//! The one little-endian field-list codec behind every byte layout in
//! the workspace: wire messages, log payloads, file headers.
//!
//! A layout is stated once — a type's fields in byte order
//! ([`le_record!`](crate::le_record)) or a tag table
//! ([`le_enum!`](crate::le_enum)) — and that one declaration is both
//! directions: [`Le::put`] appends the bytes, [`Le::get`] pulls them
//! back off a bounds-checked [`Reader`]. Integers are little-endian;
//! floats travel as IEEE-754 bit patterns (never decimal); `bool` is one
//! byte, `0` or `1`; `Option<T>` is a presence byte then `T`; `Vec<T>`
//! and `String` are a `u32` count then the elements; tuples and byte
//! arrays are their parts back to back. Decoding is total: a short
//! payload, a bad tag, bad UTF-8 or a count the remaining bytes cannot
//! hold is an [`Error`], never a panic and never an allocation sized by
//! the hostile count.
//!
//! The format parameter `F` of [`Le`] is a marker type owned by the
//! crate that owns the format (`Wire` in `exsample-proto`, a `Disk` in
//! `exsample-store`'s framing and one in `exsample-persist`). The orphan
//! rule then lets that crate declare layouts for types it does not own,
//! and one type may be laid out differently in different formats.

use std::borrow::Cow;

/// Decode failure: the bytes do not parse as the declared layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Error(pub &'static str);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0)
    }
}

impl std::error::Error for Error {}

/// Bounds-checked little-endian pull parser over a byte slice. The
/// small methods are `#[inline]`: every declared layout in every other
/// crate is built out of calls to them.
#[derive(Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader at the start of `data`.
    #[inline]
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data }
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Error> {
        let (head, rest) = self
            .data
            .split_at_checked(n)
            .ok_or(Error("payload too short"))?;
        self.data = rest;
        Ok(head)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], Error> {
        let (head, rest) = self
            .data
            .split_first_chunk()
            .ok_or(Error("payload too short"))?;
        self.data = rest;
        Ok(*head)
    }

    /// One byte that must be `0` or `1`.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, Error> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(Error("bad bool tag")),
        }
    }

    /// A `u32` element count, refused unless the bytes that remain could
    /// hold that many elements of at least `min_elem` bytes each — so a
    /// hostile count is rejected before anything is allocated for it.
    #[inline]
    pub fn count(&mut self, min_elem: usize) -> Result<usize, Error> {
        let n = self.u32()? as usize;
        if n > self.data.len() / min_elem.max(1) {
            return Err(Error("element count exceeds payload"));
        }
        Ok(n)
    }

    /// A `u32` byte length, then that many bytes of UTF-8.
    pub fn string(&mut self) -> Result<String, Error> {
        let len = self.count(1)?;
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| Error("string not UTF-8"))
    }

    /// The bytes not yet consumed.
    #[inline]
    pub fn rest(&self) -> &'a [u8] {
        self.data
    }

    /// Succeeds only when every byte was consumed.
    #[inline]
    pub fn finish(&self) -> Result<(), Error> {
        if self.data.is_empty() {
            Ok(())
        } else {
            Err(Error("trailing bytes"))
        }
    }
}

/// A type with a byte layout in format `F`.
pub trait Le<F>: Sized {
    /// Fewest bytes one encoded value can occupy: the exact size of a
    /// fixed-layout record, and the count guard of a `Vec` of these.
    const MIN: usize;

    /// Append the encoding of `self` to `out`.
    fn put(&self, out: &mut Vec<u8>);

    /// Decode one value off the front of `r`.
    fn get(r: &mut Reader<'_>) -> Result<Self, Error>;
}

/// Decode a payload that must be exactly one `T`.
pub fn decode<F, T: Le<F>>(payload: &[u8]) -> Result<T, Error> {
    let mut r = Reader::new(payload);
    let value = T::get(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// `u32` length then the bytes: `String`'s layout, for byte strings
/// that are not UTF-8.
#[inline]
pub fn put_bytes(bytes: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// `u32` count then the elements: the layout of `Vec<T>` and of a
/// borrowed slice of `T`.
fn put_seq<F, T: Le<F>>(items: &[T], out: &mut Vec<u8>) {
    out.extend_from_slice(&(items.len() as u32).to_le_bytes());
    for item in items {
        item.put(out);
    }
}

/// `T::MIN` of the field a projection returns: lets [`le_record!`] sum a
/// record's `MIN` from field *names* alone.
#[doc(hidden)]
pub const fn min_of<F, S, T: Le<F>>(_project: fn(&S) -> &T) -> usize {
    T::MIN
}

macro_rules! le_numbers {
    ($($ty:ident),*) => {
        impl Reader<'_> {$(
            #[doc = concat!("A little-endian `", stringify!($ty), "`.")]
            #[inline]
            pub fn $ty(&mut self) -> Result<$ty, Error> {
                Ok($ty::from_le_bytes(self.array()?))
            }
        )*}
        $(impl<F> Le<F> for $ty {
            const MIN: usize = std::mem::size_of::<$ty>();
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn get(r: &mut Reader<'_>) -> Result<Self, Error> {
                r.$ty()
            }
        })*
    };
}
le_numbers!(u8, u16, u32, u64, f32, f64);

/// `usize` travels as a `u64`.
impl<F> Le<F> for usize {
    const MIN: usize = 8;
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(*self as u64).to_le_bytes());
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, Error> {
        usize::try_from(r.u64()?).map_err(|_| Error("value exceeds usize"))
    }
}

impl<F> Le<F> for bool {
    const MIN: usize = 1;
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.bool()
    }
}

impl<F> Le<F> for String {
    const MIN: usize = 4;
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        put_bytes(self.as_bytes(), out);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.string()
    }
}

impl<F, const N: usize> Le<F> for [u8; N] {
    const MIN: usize = N;
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.array()
    }
}

impl<F, T: Le<F>> Le<F> for Option<T> {
    const MIN: usize = 1;
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(value) => {
                out.push(1);
                value.put(out);
            }
        }
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, Error> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::get(r)?)),
            _ => Err(Error("bad option tag")),
        }
    }
}

impl<F, T: Le<F>> Le<F> for Vec<T> {
    const MIN: usize = 4;
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        put_seq(self, out);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, Error> {
        let n = r.count(T::MIN)?;
        let mut items = Vec::with_capacity(n);
        // The loop reads through a reader of its own, which can live in
        // registers; through `r` every field read is a store to memory.
        let mut elems = Reader::new(r.data);
        for _ in 0..n {
            items.push(T::get(&mut elems)?);
        }
        r.data = elems.data;
        Ok(items)
    }
}

/// A `Vec<T>` that can be encoded from a borrowed slice: the layout is
/// `Vec<T>`'s, decoding yields the owned arm.
impl<F, T: Le<F> + Clone> Le<F> for Cow<'_, [T]> {
    const MIN: usize = 4;
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        put_seq(self, out);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, Error> {
        Vec::get(r).map(Cow::Owned)
    }
}

impl<F, A: Le<F>, B: Le<F>> Le<F> for (A, B) {
    const MIN: usize = A::MIN + B::MIN;
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, Error> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

/// Declare the layout of a struct in format `$fmt` as its fields in byte
/// order: `le_record!(Wire: TracePoint { samples, found, seconds })`.
/// Tuple structs name their fields by index (`SessionId { 0 }`). Yields
/// [`Le`] — both directions and `MIN` — from the one list.
///
/// The generated functions are `#[inline]` (as are `le_enum!`'s and
/// the impls above): a layout is a tree of these calls, and only
/// flattened does it run like a hand-written decoder — without the hints
/// decoding a `Submit` message measured 28 → 50 ns.
#[macro_export]
macro_rules! le_record {
    ($fmt:ty: $ty:ty { $($field:tt),* $(,)? }) => {
        impl $crate::le::Le<$fmt> for $ty {
            const MIN: usize = 0 $(+ $crate::le::min_of::<$fmt, Self, _>(|s| &s.$field))*;
            #[inline]
            fn put(&self, out: &mut ::std::vec::Vec<u8>) {
                $($crate::le::Le::<$fmt>::put(&self.$field, out);)*
            }
            #[inline]
            fn get(
                r: &mut $crate::le::Reader<'_>,
            ) -> ::std::result::Result<Self, $crate::le::Error> {
                ::std::result::Result::Ok(Self {
                    $($field: $crate::le::Le::<$fmt>::get(r)?,)*
                })
            }
        }
    };
}

/// Declare the layout of an enum in format `$fmt` as a tag table: one
/// tag byte, then the variant's fields in the order listed.
/// `le_enum!(Wire: SessionStatus, "bad status tag" { 0 => Running, 1 =>
/// Done })`; variants with data list their fields, `2 => Moved(to)` or
/// `3 => Resized { w, h }`. A tag outside the table decodes to
/// `Error($bad)`.
#[macro_export]
macro_rules! le_enum {
    ($fmt:ty: $ty:ty, $bad:literal {
        $($tag:literal => $variant:ident $(($($t:ident),*))? $({$($f:ident),*})?),* $(,)?
    }) => {
        impl $crate::le::Le<$fmt> for $ty {
            const MIN: usize = 1;
            #[inline]
            fn put(&self, out: &mut ::std::vec::Vec<u8>) {
                match self {$(
                    Self::$variant $(($($t),*))? $({$($f),*})? => {
                        out.push($tag);
                        $($($crate::le::Le::<$fmt>::put($t, out);)*)?
                        $($($crate::le::Le::<$fmt>::put($f, out);)*)?
                    }
                )*}
            }
            #[inline]
            fn get(
                r: &mut $crate::le::Reader<'_>,
            ) -> ::std::result::Result<Self, $crate::le::Error> {
                ::std::result::Result::Ok(match r.u8()? {
                    $($tag => Self::$variant
                        $(($({ let $t = $crate::le::Le::<$fmt>::get(r)?; $t }),*))?
                        $({$($f: $crate::le::Le::<$fmt>::get(r)?),*})?,)*
                    _ => return ::std::result::Result::Err($crate::le::Error($bad)),
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    struct T;

    #[derive(Debug, PartialEq)]
    struct Id(u32);
    #[derive(Debug, PartialEq)]
    struct Row {
        id: Id,
        tags: Vec<(String, u64)>,
        score: Option<f32>,
        live: bool,
    }
    #[derive(Debug, PartialEq)]
    enum Shape {
        Dot,
        Line(u16, u16),
        Box { w: u8, h: u8 },
    }
    le_record!(T: Id { 0 });
    le_record!(T: Row { id, tags, score, live });
    le_enum!(T: Shape, "bad shape tag" { 0 => Dot, 1 => Line(a, b), 7 => Box { w, h } });

    fn bytes<V: Le<T>>(v: &V) -> Vec<u8> {
        let mut out = Vec::new();
        v.put(&mut out);
        out
    }

    #[test]
    fn a_record_is_its_fields_in_the_order_listed() {
        let row = Row {
            id: Id(0x0403_0201),
            tags: vec![("é".into(), 2)],
            score: Some(-0.0),
            live: true,
        };
        let want = [
            &[1, 2, 3, 4][..],         // id
            &[1, 0, 0, 0],             // one tag
            &[2, 0, 0, 0, 0xC3, 0xA9], // "é"
            &[2, 0, 0, 0, 0, 0, 0, 0], // 2
            &[1, 0, 0, 0, 0x80],       // Some(-0.0)
            &[1],                      // true
        ]
        .concat();
        assert_eq!(bytes(&row), want);
        assert_eq!(decode::<T, Row>(&want), Ok(row));
        assert_eq!(<Row as Le<T>>::MIN, 4 + 4 + 1 + 1);
        assert_eq!(<(String, u64) as Le<T>>::MIN, 12);
    }

    #[test]
    fn an_enum_is_a_tag_then_the_variant_fields() {
        for (shape, want) in [
            (Shape::Dot, vec![0]),
            (Shape::Line(0x0201, 3), vec![1, 1, 2, 3, 0]),
            (Shape::Box { w: 8, h: 9 }, vec![7, 8, 9]),
        ] {
            assert_eq!(bytes(&shape), want);
            assert_eq!(decode::<T, Shape>(&want), Ok(shape));
        }
        assert_eq!(decode::<T, Shape>(&[2]), Err(Error("bad shape tag")));
    }

    #[test]
    fn hostile_input_is_an_error_not_a_panic_or_an_allocation() {
        assert_eq!(
            decode::<T, u32>(&[1, 2, 3]),
            Err(Error("payload too short"))
        );
        assert_eq!(decode::<T, u8>(&[1, 2]), Err(Error("trailing bytes")));
        assert_eq!(decode::<T, bool>(&[2]), Err(Error("bad bool tag")));
        assert_eq!(
            decode::<T, Option<u8>>(&[2, 0]),
            Err(Error("bad option tag"))
        );
        assert_eq!(
            decode::<T, String>(&[2, 0, 0, 0, 0xFF, 0xFE]),
            Err(Error("string not UTF-8"))
        );
        // u32::MAX elements claimed by a 9-byte payload.
        let hostile = [&u32::MAX.to_le_bytes()[..], &[0; 5]].concat();
        assert_eq!(
            decode::<T, Vec<u64>>(&hostile),
            Err(Error("element count exceeds payload"))
        );
        assert_eq!(
            decode::<T, String>(&hostile),
            Err(Error("element count exceeds payload"))
        );
        // A count the guard admits still cannot outrun the bytes.
        assert_eq!(
            decode::<T, Vec<Option<u64>>>(&[2, 0, 0, 0, 1, 1]),
            Err(Error("payload too short"))
        );
    }

    #[test]
    fn a_borrowed_slice_encodes_as_the_vec_it_decodes_to() {
        let items = [1u16, 2, 3];
        let borrowed: Cow<'_, [u16]> = Cow::Borrowed(&items);
        assert_eq!(bytes(&borrowed), bytes(&items.to_vec()));
        assert_eq!(
            decode::<T, Cow<'_, [u16]>>(&bytes(&borrowed)),
            Ok(Cow::Owned(items.to_vec()))
        );
    }
}
