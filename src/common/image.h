/**
 * @file
 * Single-channel float image container plus the geometric primitives
 * the eye tracking pipeline needs: bilinear resize, cropping with
 * clamped borders, normalization, and drawing helpers used by the
 * synthetic eye renderer.
 */

#ifndef EYECOD_COMMON_IMAGE_H
#define EYECOD_COMMON_IMAGE_H

#include <cstddef>
#include <vector>

#include "common/status.h"

namespace eyecod {

/** An axis-aligned integer rectangle (pixel units). */
struct Rect
{
    int x = 0;      ///< Left edge (inclusive).
    int y = 0;      ///< Top edge (inclusive).
    int width = 0;  ///< Width in pixels.
    int height = 0; ///< Height in pixels.

    /** Centre x coordinate. */
    double cx() const { return x + width / 2.0; }
    /** Centre y coordinate. */
    double cy() const { return y + height / 2.0; }
    /** Area in pixels. */
    long area() const { return long(width) * long(height); }

    /** Snapshot field list. */
    template <class Ar>
    Status
    fields(Ar &ar)
    {
        ar(x, y, width, height);
        return ar.status();
    }
};

/**
 * A grayscale image with float pixels, row-major, nominally in [0, 1].
 */
class Image
{
  public:
    /** An empty 0x0 image. */
    Image() = default;

    /** A height x width image filled with @p fill. */
    Image(int height, int width, float fill = 0.0f);

    /** Image height in pixels. */
    int height() const { return height_; }
    /** Image width in pixels. */
    int width() const { return width_; }
    /** Total pixel count. */
    size_t size() const { return data_.size(); }

    /** Mutable pixel access (no bounds check). */
    float &at(int y, int x) { return data_[size_t(y) * width_ + x]; }
    /** Const pixel access (no bounds check). */
    float at(int y, int x) const { return data_[size_t(y) * width_ + x]; }

    /** Pixel access with border clamping. */
    float atClamped(int y, int x) const;

    /** Raw pixel storage (row-major). */
    std::vector<float> &data() { return data_; }
    /** Raw pixel storage (row-major, const). */
    const std::vector<float> &data() const { return data_; }

    /**
     * Reshape in place, reusing the existing allocation whenever the
     * new pixel count fits the current capacity. Pixel contents are
     * unspecified afterwards; callers overwrite every pixel. This is
     * the capacity-reuse primitive behind every *Into API.
     */
    void resetShape(int height, int width);

    /** Bilinear resize to the given shape. */
    Image resized(int new_height, int new_width) const;

    /**
     * Bilinear resize into @p out, reusing @p out's buffer when the
     * target shape matches its capacity (zero allocations in steady
     * state). Bitwise-identical to resized(). @p out must not alias
     * this image.
     */
    void resizedInto(int new_height, int new_width, Image *out) const;

    /**
     * Crop the given rectangle; samples outside the image are filled by
     * clamped-border replication so ROI crops near edges stay valid.
     */
    Image cropped(const Rect &r) const;

    /**
     * Crop into @p out, reusing @p out's buffer (zero allocations in
     * steady state). Bitwise-identical to cropped(). @p out must not
     * alias this image.
     */
    void croppedInto(const Rect &r, Image *out) const;

    /** Clamp all pixels into [lo, hi]. */
    void clamp(float lo = 0.0f, float hi = 1.0f);

    /** Mean pixel value. */
    float mean() const;

    /** Min / max pixel values. */
    float minValue() const;
    float maxValue() const;

    /** Rescale pixels linearly so min -> 0 and max -> 1. */
    void normalize();

    /** Fill a solid disk (used by the synthetic renderer). */
    void fillDisk(double cy, double cx, double radius, float value);

    /**
     * Fill a solid axis-aligned ellipse.
     *
     * @param cy,cx centre. @param ry,rx radii. @param value pixel value.
     */
    void fillEllipse(double cy, double cx, double ry, double rx,
                     float value);

  private:
    int height_ = 0;
    int width_ = 0;
    std::vector<float> data_;
};

/** Mean squared error between two same-shaped images. */
double imageMse(const Image &a, const Image &b);

/** Peak signal-to-noise ratio in dB assuming a unit dynamic range. */
double imagePsnr(const Image &a, const Image &b);

/**
 * Zero-mean normalized cross-correlation between two same-shaped
 * images; 1.0 means identical up to affine intensity changes. Used by
 * the visual-privacy experiments to quantify how little a raw FlatCam
 * measurement resembles the scene.
 */
double imageNcc(const Image &a, const Image &b);

} // namespace eyecod

#endif // EYECOD_COMMON_IMAGE_H
