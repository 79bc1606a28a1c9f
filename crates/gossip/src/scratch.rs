/// A push-only buffer whose first `N` elements live on the stack and which
/// spills to the heap past that. The per-message gossip path sizes its
/// working sets by view capacity (~20–40 entries), so in practice it never
/// allocates — but capacities are configuration, hence the spill.
///
/// Creating one writes all `N` inline slots, so `N` should be what a call
/// actually uses, not a generous bound.
#[derive(Debug)]
pub struct Scratch<T, const N: usize> {
    inline: [T; N],
    len: usize,
    spill: Vec<T>,
}

impl<T: Copy + Default, const N: usize> Scratch<T, N> {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::with_fill(T::default())
    }
}

impl<T: Copy, const N: usize> Scratch<T, N> {
    /// An empty buffer for a `T` without a default (a reference, say):
    /// `fill` initialises the inline slots and is never read back.
    pub fn with_fill(fill: T) -> Self {
        Scratch {
            inline: [fill; N],
            len: 0,
            spill: Vec::new(),
        }
    }

    /// A buffer holding `len` copies of `value`.
    pub fn filled(len: usize, value: T) -> Self {
        let spill = if len > N {
            vec![value; len]
        } else {
            Vec::new()
        };
        Scratch {
            inline: [value; N],
            len,
            spill,
        }
    }

    /// Appends `item`.
    pub fn push(&mut self, item: T) {
        if self.len < N {
            self.inline[self.len] = item;
        } else {
            if self.len == N {
                self.spill.extend_from_slice(&self.inline);
            }
            self.spill.push(item);
        }
        self.len += 1;
    }

    /// Number of items pushed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The items, in push order.
    pub fn as_slice(&self) -> &[T] {
        if self.len <= N {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }

    /// The items, in push order, mutably (for sorting or shuffling).
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        if self.len <= N {
            &mut self.inline[..self.len]
        } else {
            &mut self.spill
        }
    }
}

impl<T: Copy + Default, const N: usize> Default for Scratch<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for Scratch<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut s = Self::new();
        for item in iter {
            s.push(item);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spills_past_inline_capacity_keeping_order() {
        let mut s: Scratch<u32, 4> = Scratch::new();
        assert!(s.is_empty());
        for i in 0..4 {
            s.push(i);
        }
        assert_eq!(s.as_slice(), &[0, 1, 2, 3]);
        for i in 4..9 {
            s.push(i);
        }
        assert_eq!(s.len(), 9);
        assert_eq!(s.as_slice(), (0..9).collect::<Vec<_>>().as_slice());
        s.as_mut_slice().reverse();
        assert_eq!(s.as_slice()[0], 8);
    }

    #[test]
    fn filled_inline_and_spilled() {
        let small: Scratch<u8, 4> = Scratch::filled(3, 7);
        assert_eq!(small.as_slice(), &[7, 7, 7]);
        let mut big: Scratch<u8, 4> = Scratch::filled(6, 1);
        big.push(2);
        assert_eq!(big.as_slice(), &[1, 1, 1, 1, 1, 1, 2]);
        let word = 5u64;
        let mut refs: Scratch<&u64, 2> = Scratch::with_fill(&word);
        assert!(refs.is_empty());
        refs.push(&word);
        assert_eq!(refs.as_slice(), &[&5]);
    }
}
