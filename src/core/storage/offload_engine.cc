#include "core/storage/storage_engine.h"
#include "hw/calibration.h"

namespace dpdpu::se {

void OffloadEngine::Execute(RemoteRequest request, ReplyFn reply) {
  DPDPU_SIM_ACCESS(race_tag_, "OffloadEngine", /*key=*/0,
                   sim::AccessKind::kCommutativeWrite);
  ++executed_;
  // UDF parse/translate on a DPU core (Section 7: "users supply a UDF
  // that parses network messages ... and translates them into file
  // operations").
  server_->dpu_cpu().Execute(
      hw::cal::kUdfParseCycles,
      [this, request = std::move(request),
       reply = std::move(reply)]() mutable {
        if (udf_) {
          Result<RemoteRequest> translated = udf_(request);
          if (!translated.ok()) {
            reply(translated.status());
            return;
          }
          request = std::move(translated).value();
        }
        ServeFileRequest(files_, std::move(request), persist_mode_,
                         std::move(reply));
      });
}

void ServeFileRequest(FileService* files, RemoteRequest request,
                      PersistMode mode, ReplyFn reply) {
  if (request.op == RemoteOp::kRead) {
    files->ReadAsync(request.file, request.offset, request.length,
                     std::move(reply));
    return;
  }
  files->WriteAsync(request.file, request.offset, std::move(request.data),
                    mode, [reply = std::move(reply)](Status s) {
                      if (s.ok()) {
                        reply(Buffer());
                      } else {
                        reply(std::move(s));
                      }
                    });
}

}  // namespace dpdpu::se
