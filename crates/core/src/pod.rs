//! Plain-old-data byte serialization (unsafe-free).
//!
//! Chunks must be serializable so the scheduler can migrate them between
//! processes for load balancing (paper §4.1). [`Pod`] provides explicit
//! little-endian encoding for the scalar and small-composite types the
//! benchmarks use, without any `unsafe` transmutes. A chunk's encoding is
//! never decoded: its length is what a migration is charged and its
//! content is what the job journal hashes. The journal's own fixed-width
//! record fields are the one thing read back ([`Pod::read_le`]).

/// A fixed-size value with an explicit little-endian byte encoding.
pub trait Pod: Copy + Send + Sync + 'static {
    /// Encoded size in bytes.
    const SIZE: usize;
    /// Append the encoding of `self` to `out`.
    fn write_le(&self, out: &mut Vec<u8>);
    /// Decode from the first `SIZE` bytes of `src`.
    ///
    /// # Panics
    /// Panics if `src` is shorter than `SIZE`.
    fn read_le(src: &[u8]) -> Self;
}

macro_rules! impl_pod_scalar {
    ($($t:ty),*) => {$(
        impl Pod for $t {
            const SIZE: usize = std::mem::size_of::<$t>();
            #[inline]
            fn write_le(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn read_le(src: &[u8]) -> Self {
                <$t>::from_le_bytes(src[..Self::SIZE].try_into().expect("pod: short read"))
            }
        }
    )*};
}

impl_pod_scalar!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

impl<A: Pod, B: Pod> Pod for (A, B) {
    const SIZE: usize = A::SIZE + B::SIZE;
    #[inline]
    fn write_le(&self, out: &mut Vec<u8>) {
        self.0.write_le(out);
        self.1.write_le(out);
    }
    #[inline]
    fn read_le(src: &[u8]) -> Self {
        (A::read_le(src), B::read_le(&src[A::SIZE..]))
    }
}

impl<T: Pod, const N: usize> Pod for [T; N] {
    const SIZE: usize = T::SIZE * N;
    #[inline]
    fn write_le(&self, out: &mut Vec<u8>) {
        for v in self {
            v.write_le(out);
        }
    }
    #[inline]
    fn read_le(src: &[u8]) -> Self {
        std::array::from_fn(|i| T::read_le(&src[i * T::SIZE..]))
    }
}

/// Encode a slice of pods (length-prefixed).
pub fn write_slice<T: Pod>(items: &[T], out: &mut Vec<u8>) {
    (items.len() as u64).write_le(out);
    out.reserve(items.len() * T::SIZE);
    for it in items {
        it.write_le(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        let mut buf = Vec::new();
        42u32.write_le(&mut buf);
        (-7i64).write_le(&mut buf);
        3.5f64.write_le(&mut buf);
        assert_eq!(u32::read_le(&buf), 42);
        assert_eq!(i64::read_le(&buf[4..]), -7);
        assert_eq!(f64::read_le(&buf[12..]), 3.5);
    }

    #[test]
    fn tuple_and_array_round_trips() {
        let mut buf = Vec::new();
        let p: (f32, f32) = (1.25, -2.5);
        p.write_le(&mut buf);
        assert_eq!(<(f32, f32)>::read_le(&buf), p);

        let mut buf = Vec::new();
        let a = [9u16, 8, 7];
        a.write_le(&mut buf);
        assert_eq!(<[u16; 3]>::read_le(&buf), a);
        assert_eq!(<[u16; 3]>::SIZE, 6);
    }

    #[test]
    fn slices_are_length_prefixed() {
        let mut buf = Vec::new();
        write_slice(&[7u16, 9], &mut buf);
        assert_eq!(buf, [2, 0, 0, 0, 0, 0, 0, 0, 7, 0, 9, 0]);
        buf.clear();
        write_slice::<f64>(&[], &mut buf);
        assert_eq!(buf, [0; 8]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn short_reads_panic() {
        let _ = u64::read_le(&[1, 2, 3]);
    }
}
