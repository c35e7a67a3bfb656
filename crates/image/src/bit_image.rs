//! 1-bit (black & white) images.

/// A black-and-white image, one bit per pixel.
///
/// Fig. 5 of the paper stores a 200×154 B/W image in approximate DRAM;
/// [`BitImage::to_bytes`]/[`BitImage::from_bytes`] pack pixels LSB-first into
/// bytes — the same bit order the DRAM simulator uses — so pixel `k` of the
/// image is exactly cell `k` of the stored buffer.
///
/// # Example
///
/// ```
/// use pc_image::BitImage;
/// let mut img = BitImage::new(16, 2);
/// img.set(3, 0, true);
/// let bytes = img.to_bytes();
/// let back = BitImage::from_bytes(16, 2, &bytes);
/// assert_eq!(img, back);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitImage {
    width: usize,
    height: usize,
    bits: Vec<bool>,
}

impl BitImage {
    /// Creates an all-white (all-false) image.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be positive");
        Self {
            width,
            height,
            bits: vec![false; width * height],
        }
    }

    /// Creates an image by evaluating `f(x, y)` for every pixel (true =
    /// black).
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> bool) -> Self {
        let mut img = Self::new(width, height);
        for y in 0..height {
            for x in 0..width {
                img.bits[y * width + x] = f(x, y);
            }
        }
        img
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn get(&self, x: usize, y: usize) -> bool {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x},{y}) out of bounds"
        );
        self.bits[y * self.width + x]
    }

    /// Sets the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn set(&mut self, x: usize, y: usize, v: bool) {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x},{y}) out of bounds"
        );
        self.bits[y * self.width + x] = v;
    }

    /// Number of set (black) pixels.
    pub fn count_ones(&self) -> usize {
        self.bits.iter().filter(|&&b| b).count()
    }

    /// Number of clear (white) pixels.
    pub fn count_zeros(&self) -> usize {
        self.bits.len() - self.count_ones()
    }

    /// Packs the image into bytes, LSB-first, padding the final byte with
    /// zeros. Pixel `k` (row-major) is bit `k % 8` of byte `k / 8`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.bits.len().div_ceil(8)];
        for (k, &b) in self.bits.iter().enumerate() {
            if b {
                out[k / 8] |= 1 << (k % 8);
            }
        }
        out
    }

    /// Unpacks an image from LSB-first packed bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is shorter than `ceil(width*height/8)`.
    pub fn from_bytes(width: usize, height: usize, bytes: &[u8]) -> Self {
        let n = width * height;
        assert!(
            bytes.len() >= n.div_ceil(8),
            "byte buffer too short for {width}x{height} image"
        );
        let mut img = Self::new(width, height);
        for k in 0..n {
            img.bits[k] = bytes[k / 8] & (1 << (k % 8)) != 0;
        }
        img
    }

    /// Pixel positions (as flat indices) where two images differ.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn diff_positions(&self, other: &BitImage) -> Vec<usize> {
        assert_eq!(
            (self.width, self.height),
            (other.width, other.height),
            "image dimensions differ"
        );
        self.bits
            .iter()
            .zip(&other.bits)
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, _)| i)
            .collect()
    }

    /// Renders to ASCII art (`#` for black), for debugging and the Fig. 5
    /// harness output.
    pub fn to_ascii(&self) -> String {
        let mut s = String::with_capacity((self.width + 1) * self.height);
        for y in 0..self.height {
            for x in 0..self.width {
                s.push(if self.get(x, y) { '#' } else { '.' });
            }
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_roundtrip_non_multiple_of_eight() {
        let img = BitImage::from_fn(5, 3, |x, y| (x + y) % 2 == 0);
        let bytes = img.to_bytes();
        assert_eq!(bytes.len(), 2);
        assert_eq!(BitImage::from_bytes(5, 3, &bytes), img);
    }

    #[test]
    fn bit_order_is_lsb_first() {
        let mut img = BitImage::new(8, 1);
        img.set(0, 0, true);
        img.set(7, 0, true);
        assert_eq!(img.to_bytes(), vec![0b1000_0001]);
    }

    #[test]
    fn counts() {
        let img = BitImage::from_fn(4, 4, |x, _| x < 2);
        assert_eq!(img.count_ones(), 8);
        assert_eq!(img.count_zeros(), 8);
    }

    #[test]
    fn diff_positions_finds_flips() {
        let a = BitImage::from_fn(4, 2, |_, _| false);
        let mut b = a.clone();
        b.set(1, 0, true);
        b.set(3, 1, true);
        assert_eq!(a.diff_positions(&b), vec![1, 7]);
    }

    #[test]
    fn ascii_shape() {
        let img = BitImage::from_fn(3, 2, |x, y| x == y);
        let art = img.to_ascii();
        assert_eq!(art, "#..\n.#.\n");
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn from_bytes_checks_len() {
        BitImage::from_bytes(16, 2, &[0u8; 3]);
    }
}
