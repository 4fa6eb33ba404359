/**
 * @file
 * Convolution layers: generic KxK, point-wise 1x1, and depth-wise,
 * the three MAC-dominant layer types of the paper's Sec. 5.1.
 *
 * Batch-norm parameters are folded into the convolution weights
 * (standard inference-time folding) and ReLU may be fused; both
 * choices match what the deployment engine executes.
 */

#ifndef EYECOD_NN_CONV_H
#define EYECOD_NN_CONV_H

#include <cstdint>
#include <mutex>

#include "nn/layer.h"
#include "nn/quantize.h"

namespace eyecod {
namespace nn {

/** Construction parameters of a convolution layer. */
struct ConvSpec
{
    Shape in;            ///< Input tensor shape.
    int out_channels = 1;
    int kernel = 3;      ///< Square kernel size.
    int stride = 1;
    bool depthwise = false; ///< groups == channels when true.
    bool relu = true;    ///< Fused ReLU.
    int quant_bits = 0;  ///< 0 = float; 8 = int8 fake-quantization.
    uint64_t seed = 1;   ///< Weight init seed.
};

/**
 * A layer with learned weights and bias that keeps only its
 * attributes at construction. The storage is created once,
 * thread-safely, on the first forward() or weights()/bias() access,
 * He-initialized from the layer's own seed (and fake-quantized when
 * the layer quantizes), so its bytes do not depend on when or from
 * which thread that happens. paramCount() is derived from the
 * attributes, so shape-only readers (FLOPs and parameter accounting,
 * accelerator workloads) never create the storage.
 */
class WeightedLayer : public Layer
{
  public:
    long long paramCount() const final;

    /** Weights, in the layout of the concrete layer. */
    std::vector<float> &weights() { materialize(); return weights_; }
    /** Weights (const). */
    const std::vector<float> &weights() const
    {
        materialize();
        return weights_;
    }
    /** Per-output bias (empty for layers without one). */
    std::vector<float> &bias() { materialize(); return bias_; }
    /** Per-output bias (const). */
    const std::vector<float> &bias() const
    {
        materialize();
        return bias_;
    }

  protected:
    using Layer::Layer;

    /** Storage sizes and initialization, from the attributes. */
    struct ParamSpec
    {
        size_t weights = 0;
        size_t bias = 0;
        double fan_in = 1.0; ///< He-init fan-in.
        uint64_t seed = 1;
        int quant_bits = 0;  ///< Weight fake-quantization; 0 = none.
    };
    virtual ParamSpec paramSpec() const = 0;

  private:
    void materialize() const;

    mutable std::once_flag materialized_;
    mutable std::vector<float> weights_;
    mutable std::vector<float> bias_;
};

/**
 * A 2-D convolution over a CHW tensor with 'same' padding
 * (floor(kernel / 2)) and He-initialized weights.
 */
class Conv2d : public WeightedLayer
{
  public:
    Conv2d(std::string name, const ConvSpec &spec);

    using Layer::forward;
    void forward(const std::vector<const Tensor *> &in, Tensor &out,
                 const ExecContext &ctx) const override;
    Shape outputShape() const override;
    LayerKind kind() const override;
    long long macs() const override;
    LayerWorkload workload() const override;

    // weights(): [c_out][c_in_per_group][ky][kx]; bias(): [c_out].

    /** The construction spec. */
    const ConvSpec &spec() const { return spec_; }

  protected:
    ParamSpec paramSpec() const override;

  private:
    ConvSpec spec_;
    int group_channels_; ///< Input channels per group.
};

/**
 * A fully-connected layer over a flattened tensor; weights() is
 * [out][in], bias() is [out].
 */
class FullyConnected : public WeightedLayer
{
  public:
    /**
     * @param in input shape (flattened to c*h*w features).
     * @param out_features output width.
     */
    FullyConnected(std::string name, Shape in, int out_features,
                   bool relu = false, int quant_bits = 0,
                   uint64_t seed = 1);

    using Layer::forward;
    void forward(const std::vector<const Tensor *> &in, Tensor &out,
                 const ExecContext &ctx) const override;
    Shape outputShape() const override;
    LayerKind kind() const override { return LayerKind::FullyConnected; }
    long long macs() const override;
    LayerWorkload workload() const override;

  protected:
    ParamSpec paramSpec() const override;

  private:
    Shape in_;
    int in_features_;
    int out_features_;
    bool relu_;
    int quant_bits_;
    uint64_t seed_;
};

/**
 * Matrix-matrix multiplication with a learned right operand, treated
 * by the paper as point-wise convolution with batch > 1: the input is
 * (rows x 1 x k) and the layer computes (rows x 1 x cols).
 *
 * This is the layer type the FlatCam image reconstruction lowers to.
 * weights() is [k][cols]; there is no bias.
 */
class MatMul : public WeightedLayer
{
  public:
    MatMul(std::string name, int rows, int k, int cols,
           uint64_t seed = 1);

    using Layer::forward;
    void forward(const std::vector<const Tensor *> &in, Tensor &out,
                 const ExecContext &ctx) const override;
    Shape outputShape() const override;
    LayerKind kind() const override { return LayerKind::MatMul; }
    long long macs() const override;
    LayerWorkload workload() const override;

  protected:
    ParamSpec paramSpec() const override;

  private:
    int rows_, k_, cols_;
    uint64_t seed_;
};

} // namespace nn
} // namespace eyecod

#endif // EYECOD_NN_CONV_H
