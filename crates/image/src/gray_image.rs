//! 8-bit grayscale images.

/// A row-major 8-bit grayscale image.
///
/// The byte buffer returned by [`GrayImage::as_bytes`] is exactly what gets
/// stored in approximate memory in the end-to-end experiments: pixel `(x, y)`
/// is byte `y * width + x`.
///
/// # Example
///
/// ```
/// use pc_image::GrayImage;
/// let mut img = GrayImage::new(4, 3);
/// img.set(2, 1, 200);
/// assert_eq!(img.get(2, 1), 200);
/// assert_eq!(img.as_bytes().len(), 12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrayImage {
    width: usize,
    height: usize,
    pixels: Vec<u8>,
}

impl GrayImage {
    /// Creates an all-black image.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be positive");
        Self {
            width,
            height,
            pixels: vec![0; width * height],
        }
    }

    /// Creates an image by evaluating `f(x, y)` for every pixel.
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> u8) -> Self {
        let mut img = Self::new(width, height);
        for y in 0..height {
            for x in 0..width {
                img.pixels[y * width + x] = f(x, y);
            }
        }
        img
    }

    /// Reconstructs an image from raw row-major bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len() != width * height` or a dimension is zero.
    pub fn from_bytes(width: usize, height: usize, bytes: Vec<u8>) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be positive");
        assert_eq!(
            bytes.len(),
            width * height,
            "byte buffer does not match dimensions"
        );
        Self {
            width,
            height,
            pixels: bytes,
        }
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Pixel value at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn get(&self, x: usize, y: usize) -> u8 {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x},{y}) out of bounds"
        );
        self.pixels[y * self.width + x]
    }

    /// Pixel value at `(x, y)` with edge clamping (for filters).
    pub fn get_clamped(&self, x: isize, y: isize) -> u8 {
        let cx = x.clamp(0, self.width as isize - 1) as usize;
        let cy = y.clamp(0, self.height as isize - 1) as usize;
        self.pixels[cy * self.width + cx]
    }

    /// Sets the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn set(&mut self, x: usize, y: usize, v: u8) {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x},{y}) out of bounds"
        );
        self.pixels[y * self.width + x] = v;
    }

    /// The raw row-major pixel buffer.
    pub fn as_bytes(&self) -> &[u8] {
        &self.pixels
    }

    /// Consumes the image, returning the pixel buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.pixels
    }

    /// Applies `f` to every pixel value, producing a new image.
    pub fn map(&self, mut f: impl FnMut(u8) -> u8) -> GrayImage {
        GrayImage {
            width: self.width,
            height: self.height,
            pixels: self.pixels.iter().map(|&p| f(p)).collect(),
        }
    }

    /// Mean absolute per-pixel difference to another image of the same size.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn mean_abs_diff(&self, other: &GrayImage) -> f64 {
        assert_eq!(
            (self.width, self.height),
            (other.width, other.height),
            "image dimensions differ"
        );
        let total: u64 = self
            .pixels
            .iter()
            .zip(&other.pixels)
            .map(|(&a, &b)| (a as i32 - b as i32).unsigned_abs() as u64)
            .sum();
        total as f64 / self.pixels.len() as f64
    }

    /// Peak signal-to-noise ratio versus a reference image, in dB
    /// (`inf` for identical images).
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn psnr(&self, reference: &GrayImage) -> f64 {
        assert_eq!(
            (self.width, self.height),
            (reference.width, reference.height),
            "image dimensions differ"
        );
        let mse: f64 = self
            .pixels
            .iter()
            .zip(&reference.pixels)
            .map(|(&a, &b)| {
                let d = a as f64 - b as f64;
                d * d
            })
            .sum::<f64>()
            / self.pixels.len() as f64;
        if mse == 0.0 {
            f64::INFINITY
        } else {
            10.0 * (255.0f64 * 255.0 / mse).log10()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_bytes() {
        let img = GrayImage::from_fn(3, 2, |x, y| (x * 10 + y) as u8);
        let bytes = img.clone().into_bytes();
        let back = GrayImage::from_bytes(3, 2, bytes);
        assert_eq!(img, back);
    }

    #[test]
    fn from_fn_addresses_row_major() {
        let img = GrayImage::from_fn(4, 2, |x, y| (y * 4 + x) as u8);
        assert_eq!(img.as_bytes(), &[0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(img.get(3, 1), 7);
    }

    #[test]
    fn clamped_access() {
        let img = GrayImage::from_fn(2, 2, |x, y| (x + 2 * y) as u8 * 10);
        assert_eq!(img.get_clamped(-5, 0), img.get(0, 0));
        assert_eq!(img.get_clamped(7, 9), img.get(1, 1));
    }

    #[test]
    fn map_applies_everywhere() {
        let img = GrayImage::from_fn(2, 2, |_, _| 10);
        let doubled = img.map(|p| p * 2);
        assert!(doubled.as_bytes().iter().all(|&p| p == 20));
    }

    #[test]
    fn psnr_identical_is_infinite() {
        let img = GrayImage::from_fn(8, 8, |x, y| (x * y) as u8);
        assert!(img.psnr(&img).is_infinite());
    }

    #[test]
    fn psnr_drops_with_noise() {
        let img = GrayImage::from_fn(8, 8, |_, _| 128);
        let slightly = img.map(|p| p + 1);
        let very = img.map(|p| p + 100);
        assert!(slightly.psnr(&img) > very.psnr(&img));
    }

    #[test]
    fn mean_abs_diff_counts() {
        let a = GrayImage::from_fn(2, 1, |_, _| 10);
        let b = GrayImage::from_fn(2, 1, |x, _| if x == 0 { 10 } else { 14 });
        assert!((a.mean_abs_diff(&b) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        GrayImage::new(2, 2).get(2, 0);
    }

    #[test]
    #[should_panic(expected = "does not match dimensions")]
    fn from_bytes_checks_len() {
        GrayImage::from_bytes(2, 2, vec![0; 3]);
    }
}
