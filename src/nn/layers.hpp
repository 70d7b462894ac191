#pragma once

/// \file layers.hpp
/// The dense layers of the BoolGebra predictor (Fig 3g): Linear, ReLU6,
/// Sigmoid, Dropout and BatchNorm1d, each with explicit forward/backward.
/// Layers cache what backward needs — only when forward runs in train
/// mode; eval-mode forward skips the cache copies entirely, which keeps
/// the inference hot path allocation-light.  Inputs are taken as
/// ConstMatrixView so batched callers can pass zero-copy row panels.  The
/// training loop is single-threaded by design (one model instance per
/// thread if parallelism is wanted).
///
/// The MLP layers also expose a `forward_eval()` that is genuinely
/// `const`: it computes the same bits as `forward(x, /*train=*/false)`
/// but never touches the backward caches, so one model instance can serve
/// concurrent inference (the FlowService shares a
/// `shared_ptr<const BoolGebraModel>` across jobs).  Inference parallelism
/// lives in the fused GraphSAGE trunk (sage_trunk.hpp), which shards
/// samples, not these layers.

#include "nn/matrix.hpp"
#include "util/rng.hpp"

namespace bg::nn {

/// A view of one trainable tensor for the optimizer.
struct ParamRef {
    float* value = nullptr;
    float* grad = nullptr;
    std::size_t size = 0;
};

class Linear {
public:
    Linear(std::size_t in, std::size_t out, bg::Rng& rng);

    /// `train` = false skips the input cache (backward then requires a new
    /// train-mode forward first).
    Matrix forward(ConstMatrixView x, bool train = true);
    /// Same bits as forward(x, false) without touching any member.
    Matrix forward_eval(ConstMatrixView x) const;
    /// Accumulates parameter gradients, returns dL/dx.
    Matrix backward(const Matrix& dy);

    void zero_grad();
    std::vector<ParamRef> params();

    std::size_t in_dim() const { return w_.rows(); }
    std::size_t out_dim() const { return w_.cols(); }
    Matrix& weights() { return w_; }
    std::vector<float>& bias() { return b_; }

private:
    Matrix w_;  // in x out
    std::vector<float> b_;
    Matrix gw_;
    std::vector<float> gb_;
    Matrix cache_x_;
};

/// min(max(x, 0), 6) — the paper's activation.
class ReLU6 {
public:
    Matrix forward(const Matrix& x, bool train = true);
    /// In-place clamp of the (by-value) input; stateless.
    Matrix forward_eval(Matrix x) const;
    Matrix backward(const Matrix& dy);

private:
    Matrix cache_x_;
};

class Sigmoid {
public:
    Matrix forward(const Matrix& x, bool train = true);
    /// In-place logistic of the (by-value) input; stateless.
    Matrix forward_eval(Matrix x) const;
    Matrix backward(const Matrix& dy);

private:
    Matrix cache_y_;
};

/// Inverted dropout: scales by 1/(1-rate) at train time, identity at eval.
class Dropout {
public:
    explicit Dropout(float rate) : rate_(rate) {}

    Matrix forward(const Matrix& x, bool train, bg::Rng& rng);
    Matrix backward(const Matrix& dy);

    float rate() const { return rate_; }

private:
    float rate_;
    std::vector<float> mask_;  // per element, 0 or 1/(1-rate)
    bool last_train_ = false;
};

class BatchNorm1d {
public:
    explicit BatchNorm1d(std::size_t dim, float momentum = 0.1F,
                         float eps = 1e-5F);

    Matrix forward(const Matrix& x, bool train);
    /// Same bits as forward(x, false) — running statistics for a single
    /// row, batch statistics otherwise — without touching any member.
    Matrix forward_eval(const Matrix& x) const;
    Matrix backward(const Matrix& dy);

    void zero_grad();
    std::vector<ParamRef> params();

    std::size_t dim() const { return gamma_.size(); }

private:
    /// Per-column batch mean/variance, shared by the train and eval
    /// forwards so their arithmetic cannot drift apart.
    void batch_stats(const Matrix& x, std::vector<float>& mean,
                     std::vector<float>& var) const;

    std::vector<float> gamma_;
    std::vector<float> beta_;
    std::vector<float> g_gamma_;
    std::vector<float> g_beta_;
    std::vector<float> running_mean_;
    std::vector<float> running_var_;
    float momentum_;
    float eps_;
    // Backward caches (train mode).
    Matrix cache_xhat_;
    std::vector<float> cache_inv_std_;
};

}  // namespace bg::nn
