#ifndef GEOTORCH_NN_MODULE_H_
#define GEOTORCH_NN_MODULE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "autograd/variable.h"
#include "core/status.h"
#include "nn/precision.h"

namespace geotorch::nn {

/// Base class for neural-network layers and models. Mirrors
/// torch.nn.Module: parameters register themselves at construction,
/// Parameters() walks the module tree, and SetTraining toggles
/// behaviours such as dropout and batch-norm statistics.
///
/// Modules are neither copyable nor movable; compose them as members
/// and register each child with RegisterModule in the constructor.
class Module {
 public:
  Module() = default;
  virtual ~Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// All trainable parameters of this module and its children.
  std::vector<autograd::Variable> Parameters() const;

  /// Named parameters, prefixed with the child path ("conv1.weight").
  std::vector<std::pair<std::string, autograd::Variable>> NamedParameters()
      const;

  /// Overwrites the parameter called `name` (a NamedParameters path)
  /// with `value`, copying into the existing storage so autograd nodes
  /// and optimizer references stay valid. NotFound when no parameter
  /// has that name; InvalidArgument on a shape mismatch. This is the
  /// write hook the io/ checkpoint loader and the serving engine use.
  Status LoadNamedParameter(const std::string& name,
                            const tensor::Tensor& value);

  /// Clears every parameter gradient.
  void ZeroGrad();

  /// Switches training/eval mode recursively.
  void SetTraining(bool training);
  bool training() const { return training_; }

  /// Selects the eval-path numeric mode recursively. Layers with a
  /// low-precision kernel (Linear, Conv2d) re-derive their quantized
  /// weight caches from the current f32 parameters, so call this
  /// (again) after loading a checkpoint. Training forwards ignore the
  /// setting and stay f32.
  void SetPrecision(Precision precision);
  Precision precision() const { return precision_; }

  /// Toggles calibration mode recursively. While calibrating, eval
  /// forwards run in f32 and quantizing layers record the absolute
  /// maximum of their activations; the next int8 forward uses that
  /// static per-tensor scale instead of a per-batch dynamic one.
  void SetCalibrating(bool calibrating);
  bool calibrating() const { return calibrating_; }

  /// Total number of scalar parameters.
  int64_t NumParameters() const;

  /// Monotonic counter bumped whenever state that derived caches depend
  /// on changes: parameter loads, running-stat updates, train/eval
  /// flips, precision or calibration changes. The fused eval path
  /// snapshots folded / quantized weights keyed on this counter, so a
  /// stale cache is detected by a plain integer compare. Mutation is
  /// not synchronized: per the serving contract (DESIGN.md §13), state
  /// changes happen only on offline models, never on a model that is
  /// concurrently serving forwards.
  uint64_t state_version() const { return state_version_; }

 protected:
  /// Registers a leaf parameter initialized to `init`.
  autograd::Variable RegisterParameter(std::string name,
                                       tensor::Tensor init);
  /// Registers a child module (must outlive this module; typically a
  /// data member).
  void RegisterModule(std::string name, Module* child);

  /// Hook invoked after precision() changes; layers rebuild their
  /// low-precision weight caches here.
  virtual void OnPrecisionChanged() {}

  /// Marks derived caches stale. Subclasses call this when they mutate
  /// non-parameter state that caches depend on (e.g. BatchNorm running
  /// statistics).
  void BumpStateVersion() { ++state_version_; }

 private:
  Status LoadNamedParameterImpl(const std::string& name,
                                const std::string& full_name,
                                const tensor::Tensor& value);

  std::vector<std::pair<std::string, autograd::Variable>> params_;
  std::vector<std::pair<std::string, Module*>> children_;
  bool training_ = true;
  Precision precision_ = Precision::kF32;
  bool calibrating_ = false;
  uint64_t state_version_ = 0;
};

/// A module with the common one-in/one-out forward signature, enabling
/// generic composition via Sequential.
class UnaryModule : public Module {
 public:
  virtual autograd::Variable Forward(const autograd::Variable& x) = 0;
};

}  // namespace geotorch::nn

#endif  // GEOTORCH_NN_MODULE_H_
