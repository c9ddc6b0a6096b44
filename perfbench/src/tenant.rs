//! Tenant side: dialing the daemon through `GrdLib`, and a `CudaApi`
//! wrapper that records a span around every call a tenant makes.

use crate::daemon::{Daemon, Wire};
use crate::trace::{span, span_res};
use cuda_rt::{CudaApi, CudaResult, DevicePtr, EventHandle, ModuleHandle, Stream};
use gpu_sim::LaunchConfig;
use guardian::{GrdLib, QosClass};

/// Connect a tenant to `daemon` over its endpoint.
pub fn connect(daemon: &Daemon, mem: u64, qos: QosClass) -> CudaResult<GrdLib> {
    span_res("grdlib.connect", || match daemon.wire {
        Wire::Uds => GrdLib::dial_uds_opts(&daemon.socket, mem, None, qos),
        Wire::Shm => GrdLib::dial_shm_opts(&daemon.socket, mem, None, qos),
    })
}

/// Disconnect a tenant by dropping its API.
pub fn disconnect<A>(lib: A) {
    span("grdlib.disconnect", || drop(lib));
}

/// Records a `grdlib.<call>` span around each call into the inner API.
pub struct Traced<A>(pub A);

impl<A: CudaApi> CudaApi for Traced<A> {
    fn cuda_malloc(&mut self, bytes: u64) -> CudaResult<DevicePtr> {
        span_res("grdlib.malloc", || self.0.cuda_malloc(bytes))
    }
    fn cuda_free(&mut self, ptr: DevicePtr) -> CudaResult<()> {
        span_res("grdlib.free", || self.0.cuda_free(ptr))
    }
    fn cuda_memset(&mut self, dst: DevicePtr, byte: u8, len: u64) -> CudaResult<()> {
        span_res("grdlib.memset", || self.0.cuda_memset(dst, byte, len))
    }
    fn cuda_memcpy_h2d(&mut self, dst: DevicePtr, data: &[u8]) -> CudaResult<()> {
        span_res("grdlib.memcpy_h2d", || self.0.cuda_memcpy_h2d(dst, data))
    }
    fn cuda_memcpy_d2h(&mut self, src: DevicePtr, len: u64) -> CudaResult<Vec<u8>> {
        span_res("grdlib.memcpy_d2h", || self.0.cuda_memcpy_d2h(src, len))
    }
    fn cuda_memcpy_d2d(&mut self, dst: DevicePtr, src: DevicePtr, len: u64) -> CudaResult<()> {
        span_res("grdlib.memcpy_d2d", || {
            self.0.cuda_memcpy_d2d(dst, src, len)
        })
    }
    fn cuda_launch_kernel(
        &mut self,
        kernel: &str,
        cfg: LaunchConfig,
        args: &[u8],
        stream: Stream,
    ) -> CudaResult<()> {
        span_res("grdlib.launch", || {
            self.0.cuda_launch_kernel(kernel, cfg, args, stream)
        })
    }
    fn cuda_stream_create(&mut self) -> CudaResult<Stream> {
        span_res("grdlib.stream_create", || self.0.cuda_stream_create())
    }
    fn cuda_stream_synchronize(&mut self, stream: Stream) -> CudaResult<()> {
        span_res("grdlib.sync", || self.0.cuda_stream_synchronize(stream))
    }
    fn cuda_device_synchronize(&mut self) -> CudaResult<()> {
        span_res("grdlib.sync", || self.0.cuda_device_synchronize())
    }
    fn cuda_event_create_with_flags(&mut self, flags: u32) -> CudaResult<EventHandle> {
        span_res("grdlib.event", || {
            self.0.cuda_event_create_with_flags(flags)
        })
    }
    fn cuda_event_record(&mut self, event: EventHandle, stream: Stream) -> CudaResult<()> {
        span_res("grdlib.event", || self.0.cuda_event_record(event, stream))
    }
    fn cuda_event_elapsed_ms(&mut self, start: EventHandle, end: EventHandle) -> CudaResult<f32> {
        span_res("grdlib.event", || self.0.cuda_event_elapsed_ms(start, end))
    }
    fn cuda_stream_get_capture_info(&mut self, stream: Stream) -> CudaResult<bool> {
        span_res("grdlib.capture", || {
            self.0.cuda_stream_get_capture_info(stream)
        })
    }
    fn cuda_stream_is_capturing(&mut self, stream: Stream) -> CudaResult<bool> {
        span_res("grdlib.capture", || self.0.cuda_stream_is_capturing(stream))
    }
    fn cuda_get_export_table(&mut self, table_id: u32) -> CudaResult<Vec<String>> {
        span_res("grdlib.export_table", || {
            self.0.cuda_get_export_table(table_id)
        })
    }
    fn export_table_call(&mut self, table_id: u32, func: &str) -> CudaResult<()> {
        span_res("grdlib.export_table", || {
            self.0.export_table_call(table_id, func)
        })
    }
    fn cu_module_load_data(&mut self, name: &str, ptx_text: &str) -> CudaResult<ModuleHandle> {
        span_res("grdlib.module_load", || {
            self.0.cu_module_load_data(name, ptx_text)
        })
    }
    fn cu_mem_alloc(&mut self, bytes: u64) -> CudaResult<DevicePtr> {
        span_res("grdlib.malloc", || self.0.cu_mem_alloc(bytes))
    }
    fn cu_mem_free(&mut self, ptr: DevicePtr) -> CudaResult<()> {
        span_res("grdlib.free", || self.0.cu_mem_free(ptr))
    }
    fn cu_memcpy_htod(&mut self, dst: DevicePtr, data: &[u8]) -> CudaResult<()> {
        span_res("grdlib.memcpy_h2d", || self.0.cu_memcpy_htod(dst, data))
    }
    fn cu_launch_kernel(
        &mut self,
        kernel: &str,
        cfg: LaunchConfig,
        args: &[u8],
        stream: Stream,
    ) -> CudaResult<()> {
        span_res("grdlib.launch", || {
            self.0.cu_launch_kernel(kernel, cfg, args, stream)
        })
    }
    fn register_fatbin(&mut self, fatbin: &[u8]) -> CudaResult<()> {
        span_res("grdlib.register_fatbin", || self.0.register_fatbin(fatbin))
    }
    fn device_now_cycles(&mut self) -> u64 {
        self.0.device_now_cycles()
    }
    fn device_clock_ghz(&self) -> f64 {
        self.0.device_clock_ghz()
    }
}
