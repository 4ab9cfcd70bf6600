#include "nn/tape.hpp"

#include <stdexcept>
#include <string>

namespace magic::nn {

namespace {

[[noreturn]] void missing_record(const char* kind) {
  throw std::logic_error(std::string("Tape: no ") + kind +
                         " record left (backward without a taped forward)");
}

}  // namespace

tensor::Tensor Tape::pop_tensor() {
  if (tensors_.empty()) missing_record("tensor");
  tensor::Tensor record = std::move(tensors_.back());
  tensors_.pop_back();
  return record;
}

std::vector<std::size_t> Tape::pop_indices() {
  if (indices_.empty()) missing_record("index");
  std::vector<std::size_t> record = std::move(indices_.back());
  indices_.pop_back();
  return record;
}

tensor::SparseMatrix Tape::pop_operator() {
  if (operators_.empty()) missing_record("propagation operator");
  tensor::SparseMatrix record = std::move(operators_.back());
  operators_.pop_back();
  return record;
}

}  // namespace magic::nn
