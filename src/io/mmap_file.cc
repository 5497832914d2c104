#include "src/io/mmap_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace egraph {

MappedEdgeFile::MappedEdgeFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw std::runtime_error("cannot open " + path);
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw std::runtime_error("cannot stat " + path);
  }
  mapped_bytes_ = static_cast<size_t>(st.st_size);
  // An empty file cannot be mapped; the preamble check below rejects it.
  if (mapped_bytes_ != 0) {
    mapping_ = ::mmap(nullptr, mapped_bytes_, PROT_READ, MAP_PRIVATE, fd, 0);
  }
  ::close(fd);  // the mapping keeps its own reference
  if (mapping_ == MAP_FAILED) {
    mapping_ = nullptr;
    throw std::runtime_error("mmap failed for " + path);
  }

  EdgeFileHeader header;
  const size_t header_bytes = std::min(mapped_bytes_, sizeof(header));
  if (header_bytes != 0) {
    std::memcpy(&header, mapping_, header_bytes);
  }
  try {
    CheckEdgeFilePreamble(header, header_bytes, mapped_bytes_, path);
  } catch (...) {
    Unmap();
    throw;
  }
  header_ = static_cast<const EdgeFileHeader*>(mapping_);
  const size_t edge_bytes = header_->num_edges * sizeof(Edge);
  const size_t weight_bytes = header_->has_weights() ? header_->num_edges * sizeof(float) : 0;
  const auto* base = static_cast<const char*>(mapping_) + sizeof(EdgeFileHeader);
  edges_ = {reinterpret_cast<const Edge*>(base), header_->num_edges};
  if (weight_bytes != 0) {
    weights_ = {reinterpret_cast<const float*>(base + edge_bytes), header_->num_edges};
  }
}

MappedEdgeFile::~MappedEdgeFile() { Unmap(); }

MappedEdgeFile::MappedEdgeFile(MappedEdgeFile&& other) noexcept
    : mapping_(other.mapping_),
      mapped_bytes_(other.mapped_bytes_),
      header_(other.header_),
      edges_(other.edges_),
      weights_(other.weights_) {
  other.mapping_ = nullptr;
  other.header_ = nullptr;
  other.edges_ = {};
  other.weights_ = {};
}

MappedEdgeFile& MappedEdgeFile::operator=(MappedEdgeFile&& other) noexcept {
  if (this != &other) {
    Unmap();
    mapping_ = other.mapping_;
    mapped_bytes_ = other.mapped_bytes_;
    header_ = other.header_;
    edges_ = other.edges_;
    weights_ = other.weights_;
    other.mapping_ = nullptr;
    other.header_ = nullptr;
    other.edges_ = {};
    other.weights_ = {};
  }
  return *this;
}

void MappedEdgeFile::Unmap() {
  if (mapping_ != nullptr) {
    ::munmap(mapping_, mapped_bytes_);
    mapping_ = nullptr;
  }
}

EdgeList MappedEdgeFile::ToEdgeList() const {
  EdgeList graph;
  graph.set_num_vertices(header_->num_vertices);
  graph.mutable_edges().assign(edges_.begin(), edges_.end());
  if (!weights_.empty()) {
    graph.mutable_weights().assign(weights_.begin(), weights_.end());
  }
  return graph;
}

}  // namespace egraph
