#include "flatcam/imaging.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace eyecod {
namespace flatcam {

FlatCamSensor::FlatCamSensor(SeparableMask mask, SensorNoise noise)
    : mask_(std::move(mask)), phi_r_t_(mask_.phiR.transposed()),
      noise_(noise), rng_(noise.seed)
{
}

Image
FlatCamSensor::capture(const Image &scene) const
{
    eyecod_assert(scene.height() == sceneRows() &&
                  scene.width() == sceneCols(),
                  "scene shape %dx%d != mask scene extent %dx%d",
                  scene.height(), scene.width(),
                  sceneRows(), sceneCols());
    Image y;
    multiplexInto(ImageConstView::of(scene), &y);
    return y;
}

Result<Image>
FlatCamSensor::captureFrame(const Image &scene,
                            long frame_index) const
{
    Image y;
    Status status =
        captureFrameInto(ImageConstView::of(scene), frame_index, &y);
    if (!status.isOk())
        return status;
    return y;
}

Status
FlatCamSensor::captureFrameInto(ImageConstView scene,
                                long frame_index, Image *out) const
{
    if (scene.height() != sceneRows() || scene.width() != sceneCols())
        return Status::error(
            ErrorCode::ShapeMismatch,
            "frame %ld: scene shape %dx%d != mask scene extent %dx%d",
            frame_index, scene.height(), scene.width(), sceneRows(),
            sceneCols());

    FrameFaults faults;
    if (injector_)
        faults = injector_->plan(frame_index);
    if (faults.dropped())
        return Status::error(ErrorCode::FrameDropped,
                             "frame %ld dropped by sensor",
                             frame_index);

    multiplexInto(scene, out);
    if (injector_)
        injector_->applySensorFaults(faults, frame_index, *out);
    return Status::ok();
}

void
FlatCamSensor::resetNoise()
{
    rng_ = Rng(noise_.seed);
}

namespace {
constexpr uint32_t kSensorNoiseTag = 0x534e5331; // "SNS1"
} // namespace

template <class Ar>
Status
FlatCamSensor::fields(Ar &ar)
{
    ar.tag(kSensorNoiseTag);
    ar(rng_);
    ar.derived(mask_);     // optics, fixed at construction
    ar.derived(phi_r_t_);  // cache of mask_
    ar.derived(noise_);    // noise model config (the seed)
    ar.derived(injector_); // non-owning wiring, reattached by the owner
    // Per-frame forward-model scratch, rewarmed on the next capture.
    ar.derived(scene_mat_);
    ar.derived(left_prod_);
    ar.derived(measurement_);
    return ar.status();
}

template Status FlatCamSensor::fields(snap::SaveArchive &);
template Status FlatCamSensor::fields(snap::LoadArchive &);

void
FlatCamSensor::multiplexInto(ImageConstView scene, Image *out) const
{
    imageToMatrixInto(scene, &scene_mat_);
    mask_.phiL.multiplyInto(scene_mat_, &left_prod_);
    left_prod_.multiplyInto(phi_r_t_, &measurement_);

    // Shot noise: model each measurement as a scaled Poisson count.
    if (noise_.shot_noise_scale > 0.0) {
        const double scale = noise_.shot_noise_scale;
        for (double &v : measurement_.data()) {
            const double photons = std::max(0.0, v) * scale;
            v = double(rng_.poisson(photons)) / scale;
        }
    }
    // Additive Gaussian read noise.
    if (noise_.read_noise > 0.0) {
        for (double &v : measurement_.data())
            v += rng_.gaussian(0.0, noise_.read_noise);
    }
    matrixToImageInto(measurement_, out);
}

Matrix
imageToMatrix(const Image &img)
{
    Matrix m;
    imageToMatrixInto(ImageConstView::of(img), &m);
    return m;
}

void
imageToMatrixInto(ImageConstView img, Matrix *out)
{
    out->resetShape(size_t(img.height()), size_t(img.width()));
    for (int y = 0; y < img.height(); ++y)
        for (int x = 0; x < img.width(); ++x)
            (*out)(size_t(y), size_t(x)) = img.at(y, x);
}

Image
matrixToImage(const Matrix &m)
{
    Image img;
    matrixToImageInto(m, &img);
    return img;
}

void
matrixToImageInto(const Matrix &m, Image *out)
{
    out->resetShape(int(m.rows()), int(m.cols()));
    for (size_t y = 0; y < m.rows(); ++y)
        for (size_t x = 0; x < m.cols(); ++x)
            out->at(int(y), int(x)) = float(m(y, x));
}

} // namespace flatcam
} // namespace eyecod
