#include "nn/network.hpp"

#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/timer.hpp"

namespace pf15::nn {

Layer& Sequential::add(LayerPtr layer) {
  PF15_CHECK(layer != nullptr);
  layers_.push_back(std::move(layer));
  profiles_.push_back(
      {layers_.back()->name(), layers_.back()->kind(), 0, 0, 0, 0});
  activations_.emplace_back();
  grads_.emplace_back();
  return *layers_.back();
}

Shape Sequential::output_shape(const Shape& in) const {
  Shape s = in;
  for (const auto& l : layers_) s = l->output_shape(s);
  return s;
}

const Tensor& Sequential::forward(const Tensor& input, bool profile) {
  PF15_CHECK(!layers_.empty());
  const Tensor* cur = &input;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    WallTimer timer;
    layers_[i]->forward(*cur, activations_[i]);
    if (profile) {
      profiles_[i].forward_seconds += timer.seconds();
      profiles_[i].forward_flops += layers_[i]->forward_flops(cur->shape());
    }
    cur = &activations_[i];
  }
  return *cur;
}

const Tensor& Sequential::backward(const Tensor& input, const Tensor& dout,
                                   bool profile) {
  return run_backward(input, dout, profile, /*input_grad=*/true);
}

void Sequential::backward_params(const Tensor& input, const Tensor& dout,
                                 bool profile) {
  run_backward(input, dout, profile, /*input_grad=*/false);
}

const Tensor& Sequential::run_backward(const Tensor& input,
                                       const Tensor& dout, bool profile,
                                       bool input_grad) {
  PF15_CHECK(!layers_.empty());
  const Tensor* cur_grad = &dout;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    const Tensor& layer_in = (i == 0) ? input : activations_[i - 1];
    const bool params_only = i == 0 && !input_grad;
    WallTimer timer;
    if (params_only) {
      layers_[i]->backward_params(layer_in, *cur_grad, grads_[i]);
    } else {
      layers_[i]->backward(layer_in, *cur_grad, grads_[i]);
    }
    if (profile) {
      profiles_[i].backward_seconds += timer.seconds();
      profiles_[i].backward_flops +=
          params_only ? layers_[i]->backward_params_flops(layer_in.shape())
                      : layers_[i]->backward_flops(layer_in.shape());
    }
    cur_grad = &grads_[i];
  }
  return *cur_grad;
}

std::vector<Param> Sequential::params() {
  std::vector<Param> all;
  for (auto& l : layers_) {
    for (auto& p : l->params()) all.push_back(p);
  }
  return all;
}

std::vector<Param> Sequential::state() {
  std::vector<Param> all;
  for (auto& l : layers_) {
    for (auto& p : l->state()) all.push_back(p);
  }
  return all;
}

void Sequential::set_training(bool training) {
  training_ = training;
  for (auto& l : layers_) l->set_training(training);
}

std::size_t Sequential::param_count() {
  std::size_t n = 0;
  for (const auto& p : params()) n += p.value->numel();
  return n;
}

void Sequential::zero_grad() {
  for (auto& p : params()) p.grad->zero();
}

std::uint64_t Sequential::forward_flops(const Shape& in) const {
  std::uint64_t total = 0;
  Shape s = in;
  for (const auto& l : layers_) {
    total += l->forward_flops(s);
    s = l->output_shape(s);
  }
  return total;
}

std::uint64_t Sequential::backward_flops(const Shape& in) const {
  std::uint64_t total = 0;
  Shape s = in;
  for (const auto& l : layers_) {
    total += l->backward_flops(s);
    s = l->output_shape(s);
  }
  return total;
}

void Sequential::reset_profiles() {
  for (auto& p : profiles_) {
    p.forward_seconds = p.backward_seconds = 0.0;
    p.forward_flops = p.backward_flops = 0;
  }
}

std::vector<Param> Sequential::params_and_state() {
  std::vector<Param> all = params();
  for (auto& p : state()) all.push_back(p);
  return all;
}

namespace {

// Header of a named-tensor stream. The trailing digit is the format
// version; bump it when the record layout changes.
constexpr char kTensorStreamMagic[8] = {'P', 'F', '1', '5',
                                        'T', 'N', 'S', '1'};

}  // namespace

void save_named_tensors(std::ostream& os,
                        const std::vector<Param>& entries) {
  os.write(kTensorStreamMagic, sizeof(kTensorStreamMagic));
  const std::uint64_t count = entries.size();
  os.write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const auto& p : entries) {
    const std::uint32_t len = static_cast<std::uint32_t>(p.name.size());
    os.write(reinterpret_cast<const char*>(&len), sizeof(len));
    os.write(p.name.data(), static_cast<std::streamsize>(len));
    p.value->save(os);
  }
  if (!os) throw IoError("save_named_tensors: stream write failed");
}

void load_named_tensors(std::istream& is,
                        const std::vector<Param>& entries) {
  char magic[sizeof(kTensorStreamMagic)] = {};
  is.read(magic, sizeof(magic));
  if (!is || std::memcmp(magic, kTensorStreamMagic, sizeof(magic)) != 0) {
    throw IoError(
        "load_named_tensors: bad magic — not a pf15 named-tensor stream "
        "(or an incompatible format version)");
  }
  std::uint64_t count = 0;
  is.read(reinterpret_cast<char*>(&count), sizeof(count));
  if (!is) throw IoError("load_named_tensors: truncated header");
  if (count != entries.size()) {
    std::ostringstream oss;
    oss << "load_named_tensors: stream has " << count
        << " tensors but the model expects " << entries.size()
        << " — architecture mismatch";
    throw IoError(oss.str());
  }
  for (const auto& p : entries) {
    std::uint32_t len = 0;
    is.read(reinterpret_cast<char*>(&len), sizeof(len));
    if (!is) throw IoError("load_named_tensors: truncated record header");
    std::string name(len, '\0');
    is.read(name.data(), static_cast<std::streamsize>(len));
    if (!is) throw IoError("load_named_tensors: truncated tensor name");
    if (name != p.name) {
      throw IoError("load_named_tensors: expected tensor \"" + p.name +
                    "\" but stream holds \"" + name +
                    "\" — architecture mismatch");
    }
    Tensor t = Tensor::load(is);
    if (t.shape() != p.value->shape()) {
      std::ostringstream oss;
      oss << "load_named_tensors: shape mismatch for \"" << p.name
          << "\": model has " << p.value->shape() << ", stream has "
          << t.shape();
      throw IoError(oss.str());
    }
    p.value->copy_from(t);
  }
}

void Sequential::save_params(std::ostream& os) {
  save_named_tensors(os, params_and_state());
}

void Sequential::load_params(std::istream& is) {
  load_named_tensors(is, params_and_state());
}

}  // namespace pf15::nn
